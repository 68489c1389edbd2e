#!/bin/sh
# Tour of the command-line surface.  Every command prints canonical JSON on
# stdout (pipe to jq or a file) and a human-readable table on stderr.
set -e

export BINCURVE_CACHE_DIR="$(mktemp -d)"
trap 'rm -rf "$BINCURVE_CACHE_DIR"' EXIT

echo '== section counts of the trivial bundle on a random genus-2 curve =='
bincurve h0 --random-genus 2 --p 7 --seed 1 --md 0,0

echo
echo '== a multidegree-(2,2) class on genus 3: h0 = 2 for all but the dualizing class =='
tmp="$BINCURVE_CACHE_DIR/w.json"
bincurve h0 --random-genus 3 --p 11 --seed 5 --md 2,2

echo
echo '== Picard strata for genus 2, degree 2 (table goes to stderr) =='
bincurve strata --random-genus 2 --p 7 --seed 1 --d 2 > /dev/null

echo
echo '== special-divisor locus with cache: second call is a cache hit =='
bincurve bn --random-genus 3 --p 7 --seed 9 --md 1,1 --r 1 > "$tmp"
bincurve bn --random-genus 3 --p 7 --seed 9 --md 1,1 --r 1 --audit > /dev/null
echo "count: $(python3 -c "import json,sys;print(json.load(open('$tmp'))['report']['count'])")"

echo
echo '== verification suites (exit 0 = pass) =='
bincurve verify martens > /dev/null && echo 'martens: pass'
bincurve verify riemann --g 2 --p 7 --seed 1 > /dev/null && echo 'riemann(g=2,p=7): pass'
