#!/bin/sh
# Print each KEY's history across ci/trajectory.jsonl: its value after
# the first PR in the file, then one line per PR that moved it. A row
# whose pin is unchanged moves nothing; a key a row lacks reads "absent".
#
#   ci/trajectory.sh threadtest/cycles_8p.hoard-gl churn-wave/cycles_64p.hoard-gl
#
# With --table, print the latest pinned values as a markdown table, one
# row per KEY. A KEY that is pinned itself fills the "value" column; any
# other KEY is a prefix whose pinned keys KEY.<label> fill one column
# per label (a label a row lacks reads "—"). When both hoard-fe and
# hoard-gl columns are present, a last column gives gl against fe.
#
#   ci/trajectory.sh --table threadtest/cycles_8p larson/cycles_64p
set -eu
file="$(dirname "$0")/trajectory.jsonl"
if [ "${1:-}" = "--table" ]; then
  shift
  [ $# -gt 0 ] || { echo "usage: $0 --table KEY..." >&2; exit 2; }
  jq -rs '
    def commas: if length <= 3 then . else (.[:-3] | commas) + "," + .[-3:] end;
    def fmt:
      if . == null then "—"
      elif . == floor then floor | tostring | commas
      elif . >= 100 then (. * 10 | round) as $t | "\($t / 10 | floor | tostring | commas).\($t % 10)"
      else . * 1000 | round / 1000 | tostring end;
    def pct: (. * 1000 | round) as $t
      | ($t | fabs) as $a
      | (if $t > 0 then "+" elif $t < 0 then "−" else "" end) + "\($a / 10 | floor).\($a % 10)%";
    (map(select(has("metrics"))) | last) as $row
    | $row.metrics as $m
    | $ARGS.positional as $keys
    | [$keys[] as $k | select($m | has($k) | not)
       | $m | keys[] | select(startswith($k + ".")) | ltrimstr($k + ".")] as $ls
    | ((if any($keys[] as $k | $m | has($k); .) then ["value"] else [] end) + ($ls | unique)) as $cols
    | ($cols | index("hoard-fe") != null and index("hoard-gl") != null) as $ratio
    | (["row (PR \($row.pr))"] + $cols + (if $ratio then ["gl vs fe"] else [] end)) as $head
    | ("| " + ($head | join(" | ")) + " |"),
      ("|" + ($head | map("---|") | join(""))),
      ($keys[] as $k
       | [$cols[] as $c | if $c == "value" then $m[$k] else $m[$k + "." + $c] end] as $vs
       | ($vs | map(fmt)) as $cells
       | (if $ratio then
            ($m[$k + ".hoard-fe"]) as $fe | ($m[$k + ".hoard-gl"]) as $gl
            | [if $fe == null or $gl == null or $fe == 0 then "—" else ($gl / $fe - 1) | pct end]
          else [] end) as $r
       | "| `\($k)` | " + ($cells + $r | join(" | ")) + " |")
  ' "$file" --args "$@"
  exit 0
fi
[ $# -gt 0 ] || { echo "usage: $0 KEY..." >&2; exit 2; }
for key in "$@"; do
  jq -rs --arg k "$key" '
    $k,
    (reduce (.[] | select(has("metrics"))) as $r ({seen: false, prev: null, out: []};
      ($r.metrics[$k] // "absent") as $v
      | if .seen and $v == .prev then .
        else {seen: true, prev: $v, out: (.out + ["  PR \($r.pr)\t\($v)"])} end)
     | .out[])' "$file"
done
