#!/bin/sh
# Print each KEY's history across ci/trajectory.jsonl: its value after
# the first PR in the file, then one line per PR that moved it. A row
# whose pin is unchanged moves nothing; a key a row lacks reads "absent".
#
#   ci/trajectory.sh threadtest/cycles_8p.hoard-gl churn-wave/cycles_64p.hoard-gl
set -eu
[ $# -gt 0 ] || { echo "usage: $0 KEY..." >&2; exit 2; }
file="$(dirname "$0")/trajectory.jsonl"
for key in "$@"; do
  jq -rs --arg k "$key" '
    $k,
    (reduce (.[] | select(has("metrics"))) as $r ({seen: false, prev: null, out: []};
      ($r.metrics[$k] // "absent") as $v
      | if .seen and $v == .prev then .
        else {seen: true, prev: $v, out: (.out + ["  PR \($r.pr)\t\($v)"])} end)
     | .out[])' "$file"
done
