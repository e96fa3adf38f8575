#!/usr/bin/env bash
# The installed command, end to end: run both shipped configs into stores,
# inspect them and rank them with establo, check that their logs do not depend
# on the hash seed, load every shipped scenario and grammar, then check that
# each bad input or corrupt stored record is one "error: " line and exit
# status 1, never a traceback.
#
# It changes to the repository root first. The command under
# test is COEVARENA_COMMAND, "coevarena" by default, for example
#   COEVARENA_COMMAND="python -m coevarena.cli" PYTHONPATH=src scripts/end_to_end.sh
# Files go to RUNNER_TEMP, or else to a fresh temporary directory that is
# removed when the script exits.
set -e
cd "$(dirname "$0")/.."
read -r -a under_test <<< "${COEVARENA_COMMAND:-coevarena}"
# "command" skips this function, so the default "coevarena" runs the one on PATH.
coevarena() { command "${under_test[@]}" "$@"; }
if [ -z "${RUNNER_TEMP:-}" ]; then
  RUNNER_TEMP="$(mktemp -d)"
  trap 'rm -rf "$RUNNER_TEMP"' EXIT
fi

for name in ddos_smoke contagion_star; do
  store="$RUNNER_TEMP/store-$name"
  coevarena run --config "src/coevarena/data/configs/$name.cfg" --store "$store" > "$RUNNER_TEMP/$name.out"
  coevarena inspect "$(head -n 1 "$RUNNER_TEMP/$name.out")" --store "$store"
  coevarena establo --store "$store" --out "$RUNNER_TEMP/reports-$name" --quiet
  test -s "$RUNNER_TEMP/reports-$name/summary.txt"
  for filter in pareto-per-run best-per-run; do
    out="$RUNNER_TEMP/reports-$name-$filter"
    coevarena establo --store "$store" --filter "$filter" --out "$out" --quiet
    test -s "$out/summary.txt"
  done
done
# The ddos route table and the memos are keyed by frozensets and
# dataclasses, whose hashes change with the hash seed; the logs must not.
for name in ddos_smoke contagion_star; do
  for hashseed in 1 2; do
    PYTHONHASHSEED=$hashseed coevarena run --config "src/coevarena/data/configs/$name.cfg" \
      --store "$RUNNER_TEMP/hashseed-$hashseed-$name" > "$RUNNER_TEMP/hashseed-$hashseed-$name.out"
  done
  run="$(head -n 1 "$RUNNER_TEMP/hashseed-1-$name.out")"
  test "$run" = "$(head -n 1 "$RUNNER_TEMP/hashseed-2-$name.out")"
  for log in engagements.jsonl halfsteps.jsonl; do
    cmp "$RUNNER_TEMP/hashseed-1-$name/$run/$log" "$RUNNER_TEMP/hashseed-2-$name/$run/$log"
  done
done
# Every shipped scenario and grammar file loads through the readers.
scenarios="src/coevarena/data/scenarios"
coevarena establo --store "$RUNNER_TEMP/store-contagion_star" \
  --scenario "$scenarios/star.scenario" --scenario "$scenarios/chain.scenario" \
  --scenario "$scenarios/clique.scenario" --scenario "$scenarios/twotier.scenario" \
  --out "$RUNNER_TEMP/reports-crossnet" --quiet
test -s "$RUNNER_TEMP/reports-crossnet/summary.txt"
for grammar in src/coevarena/data/grammars/*.bnf; do
  coevarena validate-grammar "$grammar"
done
# A bad flag, a failed [experiment] check, two establo contexts
# with one label and an infinite scenario delay are each one error
# line and exit status 1, not a traceback.
expect_error() {
  status=0
  "$@" 2> "$RUNNER_TEMP/bad.err" || status=$?
  test "$status" -eq 1
  test "$(wc -l < "$RUNNER_TEMP/bad.err")" -eq 1
  grep -q '^error: ' "$RUNNER_TEMP/bad.err"
  if grep -q Traceback "$RUNNER_TEMP/bad.err"; then exit 1; fi
}
expect_error coevarena establo --store "$RUNNER_TEMP/store-ddos_smoke" --stride 0 \
  --out "$RUNNER_TEMP/reports-bad"
data="$PWD/src/coevarena/data"
sed -e 's/^repetitions = .*/repetitions = 0/' -e "s#= \.\./#= $data/#" \
  "$data/configs/ddos_smoke.cfg" > "$RUNNER_TEMP/bad.cfg"
expect_error coevarena run --config "$RUNNER_TEMP/bad.cfg" --store "$RUNNER_TEMP/store-bad"
for dir in a b; do
  mkdir -p "$RUNNER_TEMP/$dir"
  cp "$data/scenarios/ring9.scenario" "$RUNNER_TEMP/$dir/net.scenario"
done
expect_error coevarena establo --store "$RUNNER_TEMP/store-ddos_smoke" \
  --scenario "$RUNNER_TEMP/a/net.scenario" --scenario "$RUNNER_TEMP/b/net.scenario" \
  --out "$RUNNER_TEMP/reports-bad"
# Labels that differ only in case would both write payoff_net.csv.
cp "$data/scenarios/ring9.scenario" "$RUNNER_TEMP/a/Net.scenario"
expect_error coevarena establo --store "$RUNNER_TEMP/store-ddos_smoke" \
  --scenario "$RUNNER_TEMP/a/Net.scenario" --scenario "$RUNNER_TEMP/b/net.scenario" \
  --out "$RUNNER_TEMP/reports-bad"
# A reused --out holds one report set: the earlier payoff file goes.
for scenario in "$RUNNER_TEMP/a/Net.scenario" "$data/scenarios/ring9.scenario"; do
  coevarena establo --store "$RUNNER_TEMP/store-ddos_smoke" --scenario "$scenario" \
    --out "$RUNNER_TEMP/reports-reused" --quiet
done
test -s "$RUNNER_TEMP/reports-reused/payoff_ring9.csv"
test ! -e "$RUNNER_TEMP/reports-reused/payoff_net.csv"
mkdir -p "$RUNNER_TEMP/inf"
sed 's/^delay_per_infected_tick = .*/delay_per_infected_tick = inf/' \
  "$data/scenarios/star.scenario" > "$RUNNER_TEMP/inf/star.scenario"
sed -e "s#= \.\./#= $data/#" -e "s#^scenario = .*#scenario = $RUNNER_TEMP/inf/star.scenario#" \
  "$data/configs/contagion_star.cfg" > "$RUNNER_TEMP/inf.cfg"
expect_error coevarena run --config "$RUNNER_TEMP/inf.cfg" --store "$RUNNER_TEMP/store-bad"
# So are a config without a section header, a grammar that is not
# UTF-8 and a stored manifest without its environment.
printf 'seed = 1\n' > "$RUNNER_TEMP/noheader.cfg"
expect_error coevarena run --config "$RUNNER_TEMP/noheader.cfg" --store "$RUNNER_TEMP/store-bad"
printf '<s> ::= caf\351\n' > "$RUNNER_TEMP/latin1.bnf"
expect_error coevarena validate-grammar "$RUNNER_TEMP/latin1.bnf"
cp -r "$RUNNER_TEMP/store-ddos_smoke" "$RUNNER_TEMP/store-noenv"
python - "$RUNNER_TEMP"/store-noenv/*/manifest.json <<'PY'
import json, sys
for path in sys.argv[1:]:
    manifest = json.load(open(path))
    del manifest["environment"]
    json.dump(manifest, open(path, "w"))
PY
expect_error coevarena establo --store "$RUNNER_TEMP/store-noenv" --out "$RUNNER_TEMP/reports-bad"
# So is a stored half-step line that lacks its fields.
cp -r "$RUNNER_TEMP/store-ddos_smoke" "$RUNNER_TEMP/store-nofields"
for log in "$RUNNER_TEMP"/store-nofields/*/halfsteps.jsonl; do
  echo '{"record": "halfstep"}' >> "$log"
done
expect_error coevarena inspect "$(head -n 1 "$RUNNER_TEMP/ddos_smoke.out")" \
  --store "$RUNNER_TEMP/store-nofields"
# And one whose generation is a string.
cp -r "$RUNNER_TEMP/store-ddos_smoke" "$RUNNER_TEMP/store-badtype"
for log in "$RUNNER_TEMP"/store-badtype/*/halfsteps.jsonl; do
  tail -n 1 "$log" | sed 's/"generation":[0-9]*/"generation":"x"/' >> "$log"
done
expect_error coevarena inspect "$(head -n 1 "$RUNNER_TEMP/ddos_smoke.out")" \
  --store "$RUNNER_TEMP/store-badtype"
expect_error coevarena establo --store "$RUNNER_TEMP/store-badtype" --out "$RUNNER_TEMP/reports-bad"
# And a half-step log that is not UTF-8, a stored config echo whose
# selection is a list and a config whose secondary_weight is nan.
cp -r "$RUNNER_TEMP/store-ddos_smoke" "$RUNNER_TEMP/store-notutf8"
for log in "$RUNNER_TEMP"/store-notutf8/*/halfsteps.jsonl; do
  printf '\377\n' >> "$log"
done
expect_error coevarena inspect "$(head -n 1 "$RUNNER_TEMP/ddos_smoke.out")" \
  --store "$RUNNER_TEMP/store-notutf8"
cp -r "$RUNNER_TEMP/store-ddos_smoke" "$RUNNER_TEMP/store-listselection"
python - "$RUNNER_TEMP"/store-listselection/*/manifest.json <<'PY'
import json, sys
for path in sys.argv[1:]:
    manifest = json.load(open(path))
    manifest["config"]["selection"] = ["tournament", 3]
    json.dump(manifest, open(path, "w"))
PY
expect_error coevarena establo --store "$RUNNER_TEMP/store-listselection" \
  --out "$RUNNER_TEMP/reports-bad"
# And one whose generations is 1e999, which JSON reads as infinity.
cp -r "$RUNNER_TEMP/store-ddos_smoke" "$RUNNER_TEMP/store-infgenerations"
for path in "$RUNNER_TEMP"/store-infgenerations/*/manifest.json; do
  sed -i 's/"generations": [0-9]*/"generations": 1e999/' "$path"
  grep -q '"generations": 1e999' "$path"
done
expect_error coevarena inspect "$(head -n 1 "$RUNNER_TEMP/ddos_smoke.out")" \
  --store "$RUNNER_TEMP/store-infgenerations"
expect_error coevarena establo --store "$RUNNER_TEMP/store-infgenerations" \
  --out "$RUNNER_TEMP/reports-bad"
# And one whose generations is 2.5, which would load as 2, and a
# manifest whose environment is a list.
cp -r "$RUNNER_TEMP/store-ddos_smoke" "$RUNNER_TEMP/store-fracgenerations"
for path in "$RUNNER_TEMP"/store-fracgenerations/*/manifest.json; do
  sed -i 's/"generations": [0-9]*/"generations": 2.5/' "$path"
  grep -q '"generations": 2.5' "$path"
done
expect_error coevarena inspect "$(head -n 1 "$RUNNER_TEMP/ddos_smoke.out")" \
  --store "$RUNNER_TEMP/store-fracgenerations"
cp -r "$RUNNER_TEMP/store-ddos_smoke" "$RUNNER_TEMP/store-listenvironment"
for path in "$RUNNER_TEMP"/store-listenvironment/*/manifest.json; do
  sed -i 's/"environment": \("[a-z]*"\)/"environment": [\1]/' "$path"
  grep -q '"environment": \["ddos"\]' "$path"
done
expect_error coevarena establo --store "$RUNNER_TEMP/store-listenvironment" \
  --out "$RUNNER_TEMP/reports-bad"
sed -e "s#= \.\./#= $data/#" -e 's/^secondary_weight = .*/secondary_weight = nan/' \
  "$data/configs/ddos_smoke.cfg" > "$RUNNER_TEMP/nan.cfg"
expect_error coevarena run --config "$RUNNER_TEMP/nan.cfg" --store "$RUNNER_TEMP/store-bad"
# And a half-step line whose record is not "halfstep", a half-step
# log whose header names another run, and a torn half-step line,
# whose error line names the file and the line.
cp -r "$RUNNER_TEMP/store-ddos_smoke" "$RUNNER_TEMP/store-record5"
for log in "$RUNNER_TEMP"/store-record5/*/halfsteps.jsonl; do
  sed -i '$ s/"record":"halfstep"/"record":5/' "$log"
  tail -n 1 "$log" | grep -q '"record":5'
done
expect_error coevarena inspect "$(head -n 1 "$RUNNER_TEMP/ddos_smoke.out")" \
  --store "$RUNNER_TEMP/store-record5"
cp -r "$RUNNER_TEMP/store-ddos_smoke" "$RUNNER_TEMP/store-otherrun"
for log in "$RUNNER_TEMP"/store-otherrun/*/halfsteps.jsonl; do
  sed -i '1 s/"run":"[^"]*"/"run":"other-run"/' "$log"
  head -n 1 "$log" | grep -q '"run":"other-run"'
done
expect_error coevarena establo --store "$RUNNER_TEMP/store-otherrun" --out "$RUNNER_TEMP/reports-bad"
cp -r "$RUNNER_TEMP/store-ddos_smoke" "$RUNNER_TEMP/store-tornhalfstep"
for log in "$RUNNER_TEMP"/store-tornhalfstep/*/halfsteps.jsonl; do
  printf '{"record": "halfstep", "ph' >> "$log"
done
expect_error coevarena inspect "$(head -n 1 "$RUNNER_TEMP/ddos_smoke.out")" \
  --store "$RUNNER_TEMP/store-tornhalfstep"
grep -q 'halfsteps.jsonl line' "$RUNNER_TEMP/bad.err"
# And a half-step log whose last line is gone, and one with two
# lines swapped: each is not every generation in order.
cp -r "$RUNNER_TEMP/store-ddos_smoke" "$RUNNER_TEMP/store-lasthalfstep"
for log in "$RUNNER_TEMP"/store-lasthalfstep/*/halfsteps.jsonl; do
  sed -i '$ d' "$log"
done
expect_error coevarena inspect "$(head -n 1 "$RUNNER_TEMP/ddos_smoke.out")" \
  --store "$RUNNER_TEMP/store-lasthalfstep"
grep -q 'halfsteps.jsonl is not generations 1 to' "$RUNNER_TEMP/bad.err"
cp -r "$RUNNER_TEMP/store-ddos_smoke" "$RUNNER_TEMP/store-swappedhalfsteps"
for log in "$RUNNER_TEMP"/store-swappedhalfsteps/*/halfsteps.jsonl; do
  sed -i '2 {h; d}; 3 G' "$log"
done
expect_error coevarena establo --store "$RUNNER_TEMP/store-swappedhalfsteps" \
  --out "$RUNNER_TEMP/reports-bad"
grep -q 'halfsteps.jsonl is not generations 1 to' "$RUNNER_TEMP/bad.err"
# And a grammar syntax error, whose error line names the grammar file.
printf '<s> ::= a |\n' > "$RUNNER_TEMP/dangling.bnf"
sed -e "s#= \.\./#= $data/#" -e "s#^attack_grammar = .*#attack_grammar = $RUNNER_TEMP/dangling.bnf#" \
  "$data/configs/ddos_smoke.cfg" > "$RUNNER_TEMP/dangling.cfg"
expect_error coevarena run --config "$RUNNER_TEMP/dangling.cfg" --store "$RUNNER_TEMP/store-bad"
grep -qF "grammar file $RUNNER_TEMP/dangling.bnf: " "$RUNNER_TEMP/bad.err"
# And an engagement row that refers to an outcome no row has written yet
# (line 5 is the log's first row), and one whose kind index is outside the
# header's kinds: inspect reads the engagement log, and the error line
# names it and the line.
cp -r "$RUNNER_TEMP/store-ddos_smoke" "$RUNNER_TEMP/store-forwardref"
for log in "$RUNNER_TEMP"/store-forwardref/*/engagements.jsonl; do
  sed -i '5 s/^\(\[[0-9]*,[0-9]*,[0-9]*,[0-9]*\),.*/\1,0]/' "$log"
  sed -n 5p "$log" | grep -qx '\[[0-9]*,[0-9]*,[0-9]*,[0-9]*,0\]'
done
expect_error coevarena inspect "$(head -n 1 "$RUNNER_TEMP/ddos_smoke.out")" \
  --store "$RUNNER_TEMP/store-forwardref"
grep -q 'engagements.jsonl line 5 refers to outcome 0' "$RUNNER_TEMP/bad.err"
cp -r "$RUNNER_TEMP/store-ddos_smoke" "$RUNNER_TEMP/store-badkind"
for log in "$RUNNER_TEMP"/store-badkind/*/engagements.jsonl; do
  sed -i '5 s/^\[[0-9]*,/[2,/' "$log"
  sed -n 5p "$log" | grep -q '^\[2,'
done
expect_error coevarena inspect "$(head -n 1 "$RUNNER_TEMP/ddos_smoke.out")" \
  --store "$RUNNER_TEMP/store-badkind"
grep -q 'engagements.jsonl line 5 kind 2 is not an index' "$RUNNER_TEMP/bad.err"
# And a row whose pair index, ids and outcome values are of the wrong JSON
# types: each row's columns are checked, not only its kind and reference.
cp -r "$RUNNER_TEMP/store-ddos_smoke" "$RUNNER_TEMP/store-badvalues"
for log in "$RUNNER_TEMP"/store-badvalues/*/engagements.jsonl; do
  echo '[0,"x",null,99,"a",{},[],1,2,3]' >> "$log"
done
expect_error coevarena inspect "$(head -n 1 "$RUNNER_TEMP/ddos_smoke.out")" \
  --store "$RUNNER_TEMP/store-badvalues"
grep -q "engagements.jsonl line [0-9]* pair_index 'x' is not a non-negative int" "$RUNNER_TEMP/bad.err"
# And a row whose ids are well typed but name a member outside the
# population the config echo sizes (20 a side in ddos_smoke).
cp -r "$RUNNER_TEMP/store-ddos_smoke" "$RUNNER_TEMP/store-outsider"
for log in "$RUNNER_TEMP"/store-outsider/*/engagements.jsonl; do
  echo '[0,0,0,99,0]' >> "$log"
done
expect_error coevarena inspect "$(head -n 1 "$RUNNER_TEMP/ddos_smoke.out")" \
  --store "$RUNNER_TEMP/store-outsider"
grep -q "engagements.jsonl line [0-9]* defender_id 99 is not below the population size 20" "$RUNNER_TEMP/bad.err"
# And a row naming a job that does not exist: a candidate pair index past
# the 20 pairs of a one-vs-one half-step.
cp -r "$RUNNER_TEMP/store-ddos_smoke" "$RUNNER_TEMP/store-nojob"
for log in "$RUNNER_TEMP"/store-nojob/*/engagements.jsonl; do
  echo '[0,99999,0,0,0]' >> "$log"
done
expect_error coevarena inspect "$(head -n 1 "$RUNNER_TEMP/ddos_smoke.out")" \
  --store "$RUNNER_TEMP/store-nojob"
grep -q "engagements.jsonl line [0-9]* pair_index 99999 is not below the pair count 20" "$RUNNER_TEMP/bad.err"
# And a population line out of order: generation 2 attacker's line says
# generation 7, so its rows would read back as generation 7's.
cp -r "$RUNNER_TEMP/store-ddos_smoke" "$RUNNER_TEMP/store-generation7"
for log in "$RUNNER_TEMP"/store-generation7/*/engagements.jsonl; do
  sed -i 's/^\["attacker",2,/["attacker",7,/' "$log"
  grep -q '^\["attacker",7,' "$log"
done
expect_error coevarena inspect "$(head -n 1 "$RUNNER_TEMP/ddos_smoke.out")" \
  --store "$RUNNER_TEMP/store-generation7"
grep -q "engagements.jsonl line [0-9]* is the population line of generation 7 attacker, not of generation 2 attacker" \
  "$RUNNER_TEMP/bad.err"
# And a row after a generation-0 population line: generation 0 plays no
# engagements, so the first row copied to line 3 is one no half-step played.
cp -r "$RUNNER_TEMP/store-ddos_smoke" "$RUNNER_TEMP/store-generation0row"
for log in "$RUNNER_TEMP"/store-generation0row/*/engagements.jsonl; do
  sed -i "2a $(grep -m 1 '^\[[0-9]' "$log")" "$log"
done
expect_error coevarena inspect "$(head -n 1 "$RUNNER_TEMP/ddos_smoke.out")" \
  --store "$RUNNER_TEMP/store-generation0row"
grep -q "engagements.jsonl line 3 is a row of generation 0, which plays no engagements" "$RUNNER_TEMP/bad.err"
# And a population genotype that is not base64: generation 0's first defender.
cp -r "$RUNNER_TEMP/store-ddos_smoke" "$RUNNER_TEMP/store-badgenotype"
for log in "$RUNNER_TEMP"/store-badgenotype/*/engagements.jsonl; do
  sed -i '3s/^\["defender",0,null,"[^"]*"/["defender",0,null,"!!!"/' "$log"
  grep -q '^\["defender",0,null,"!!!",' "$log"
done
expect_error coevarena inspect "$(head -n 1 "$RUNNER_TEMP/ddos_smoke.out")" \
  --store "$RUNNER_TEMP/store-badgenotype"
grep -q "engagements.jsonl line 3 genotype '!!!' is not base64 of one or more 2-byte codons below 65536" \
  "$RUNNER_TEMP/bad.err"
# And a population genotype of one codon, below ddos_smoke's min_length 8.
cp -r "$RUNNER_TEMP/store-ddos_smoke" "$RUNNER_TEMP/store-shortgenotype"
for log in "$RUNNER_TEMP"/store-shortgenotype/*/engagements.jsonl; do
  sed -i '3s/^\["defender",0,null,"[^"]*"/["defender",0,null,"AAA="/' "$log"
  grep -q '^\["defender",0,null,"AAA=",' "$log"
done
expect_error coevarena inspect "$(head -n 1 "$RUNNER_TEMP/ddos_smoke.out")" \
  --store "$RUNNER_TEMP/store-shortgenotype"
grep -q "engagements.jsonl line 3 genotype 'AAA=' is not of 8 to 64 codons: it holds 1" "$RUNNER_TEMP/bad.err"
# And a half-step line whose invalid_count is negative: the last line's.
cp -r "$RUNNER_TEMP/store-ddos_smoke" "$RUNNER_TEMP/store-badinvalid"
for log in "$RUNNER_TEMP"/store-badinvalid/*/halfsteps.jsonl; do
  sed -i '$ s/"invalid_count":[0-9]*/"invalid_count":-500/' "$log"
  tail -n 1 "$log" | grep -q '"invalid_count":-500'
done
expect_error coevarena establo --store "$RUNNER_TEMP/store-badinvalid" --out "$RUNNER_TEMP/reports-bad"
grep -q "halfsteps.jsonl line [0-9]* key 'invalid_count' -500 is not from 0 to 20" "$RUNNER_TEMP/bad.err"
# And a half-step line whose best_fitness is NaN, which Python's JSON reader
# takes: every stored number must be one a float holds.
cp -r "$RUNNER_TEMP/store-ddos_smoke" "$RUNNER_TEMP/store-nanfitness"
for log in "$RUNNER_TEMP"/store-nanfitness/*/halfsteps.jsonl; do
  sed -i '$ s/"best_fitness":[^,]*/"best_fitness":NaN/' "$log"
  tail -n 1 "$log" | grep -q '"best_fitness":NaN,'
done
expect_error coevarena inspect "$(head -n 1 "$RUNNER_TEMP/ddos_smoke.out")" \
  --store "$RUNNER_TEMP/store-nanfitness"
grep -q "halfsteps.jsonl line [0-9]* key 'best_fitness' is not float: nan" "$RUNNER_TEMP/bad.err"
# And a generation-1 population line with a replaced slot: no incumbent
# precedes generation 2, so no elitism swap can come before it.
cp -r "$RUNNER_TEMP/store-ddos_smoke" "$RUNNER_TEMP/store-earlyswap"
for log in "$RUNNER_TEMP"/store-earlyswap/*/engagements.jsonl; do
  sed -i 's/^\["attacker",1,null,/["attacker",1,3,/' "$log"
  grep -q '^\["attacker",1,3,' "$log"
done
expect_error coevarena inspect "$(head -n 1 "$RUNNER_TEMP/ddos_smoke.out")" \
  --store "$RUNNER_TEMP/store-earlyswap"
grep -q "engagements.jsonl line [0-9]* replaced 3 is set, but generation 1 has no incumbent" "$RUNNER_TEMP/bad.err"
