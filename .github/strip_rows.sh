#!/bin/sh
# Prints the job rows of a `decss serve` or `decss trace replay`
# document with the fields the determinism contract ignores removed,
# so that two runs of the same jobs can be diffed:
#
#   .github/strip_rows.sh FILE
#
# FIELDS must list exactly `NONDETERMINISTIC_FIELDS` of
# crates/solver/src/json.rs (tests/golden_schema.rs checks it). As in
# `strip_nondeterministic`, each pair goes with the ", " before it, or
# with the one after it when the pair opens its row.
set -eu
FIELDS="wall_ms cache_hit"
keys=$(echo "$FIELDS" | tr ' ' '|')
grep '"job"' "$1" | sed -E "s/, \"($keys)\": [^],}]+//g; s/\"($keys)\": [^],}]+(, )?//g"
