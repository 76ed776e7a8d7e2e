#!/usr/bin/env bash
# Mutation catalogue: apply each one-hunk patch in mutants/ to a scratch
# copy of the tree, run the protocol packages' tests, and record whether
# the suite killed the mutant and which tests failed. A killed mutant is
# run once more with the byte-identity tests skipped ($identity): those
# pin a seeded run's exact bytes and are re-recorded whenever the message
# pattern changes, so only the tests that fail without them
# (semantic_killed_by) say what the mutant breaks. The semantic score
# counts the mutants that keep a killer there.
#
#   bash mutants/run.sh                  # all patches, table to BENCH_mutants.json
#   bash mutants/run.sh ba-aux-quorum    # only the named patches, table to stdout
#
# Environment: OUT overrides the output file ("-" for stdout); GOFLAGS
# passes through to go test. The copy is the working tree's tracked and
# untracked-but-not-ignored files, so uncommitted edits are measured too.
# A mutant is killed when a package's tests fail (a failing test, a panic
# or a timeout) and unbuildable when a package no longer compiles, which
# is a defect of the patch, not a kill. A patch file opens with its
# description paragraph; a survivor known to be equivalent also carries a
# paragraph starting "Survives:" that says why. The diff follows.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
pkgs=(./internal/ba ./internal/avss ./internal/acs ./internal/mpc ./internal/proto
	./internal/core ./internal/rs ./internal/poly ./internal/shamir ./internal/field
	./internal/adversary ./internal/sim)
timeout=180s
identity='^(TestSeededRunsBitIdentical|TestKernelVsReferenceByteIdentical|TestSerialParallelByteIdentical)$'

if [ $# -gt 0 ]; then
	patches=()
	for id in "$@"; do patches+=("$root/mutants/$id.patch"); done
	out=${OUT:--}
else
	patches=("$root"/mutants/*.patch)
	out=${OUT:-$root/BENCH_mutants.json}
fi

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
(cd "$root" && git ls-files -co --exclude-standard -z | xargs -0 -I{} sh -c 'if [ -e "$1" ]; then printf "%s\0" "$1"; fi' _ {}) \
	| tar -C "$root" --null -T - -cf - | tar -C "$work" -xf -

# runTests runs the package list in the copy, passing its arguments to
# go test, and prints one "pkg:Test" line per failing top-level test,
# "pkg:[build failed]" for a package that does not compile, and
# "pkg:[no test named]" for one that failed without naming a test (a
# panic outside a test, a timeout).
runTests() {
	(cd "$work" && go test -count=1 -timeout "$timeout" "$@" "${pkgs[@]}" 2>&1 || true) | awk '
		/^--- FAIL: / { failed[++nf] = $3; next }
		/^FAIL[ \t]+[^ \t]+/ {
			if ($0 ~ /\[build failed\]/) print $2 ":[build failed]"
			else if (nf == 0) print $2 ":[no test named]"
			for (i = 1; i <= nf; i++) print $2 ":" failed[i]
			nf = 0; next
		}
		/^(ok|\?)[ \t]/ { nf = 0 }
	'
}

echo "baseline: testing the unmutated tree" >&2
if [ -n "$(runTests)" ]; then
	echo "mutants: the unmutated tree fails its tests; fix that first" >&2
	runTests >&2
	exit 1
fi

rows=()
killed=0
semantic=0
for p in "${patches[@]}"; do
	id=$(basename "$p" .patch)
	desc=$(awk 'NF == 0 { exit } { printf "%s%s", sep, $0; sep = " " }' "$p")
	note=$(awk '/^diff --git / { exit } /^Survives: / { on = 1 } on && NF == 0 { exit }
		on { sub(/^Survives: /, ""); printf "%s%s", sep, $0; sep = " " }' "$p")
	file=$(sed -n 's|^diff --git a/\([^ ]*\) .*|\1|p' "$p" | head -1)
	(cd "$work" && git apply "$p")
	killers=$(runTests)
	semkillers=
	if grep -q '\[build failed\]' <<<"$killers"; then
		status=unbuildable
	elif [ -n "$killers" ]; then
		status=killed
		killed=$((killed + 1))
		semkillers=$(runTests -skip "$identity")
		if [ -n "$semkillers" ]; then
			semantic=$((semantic + 1))
		fi
	else
		status=survived
	fi
	(cd "$work" && git apply -R "$p")
	echo "$status $id (semantic killers: $(grep -c . <<<"$semkillers"))" >&2
	rows+=("$(jq -cn --arg id "$id" --arg file "$file" --arg desc "$desc" --arg status "$status" \
		--arg killers "$killers" --arg semkillers "$semkillers" --arg note "$note" \
		'{id: $id, file: $file, description: $desc, status: $status,
		  killed_by: ($killers | split("\n") | map(select(. != ""))),
		  semantic_killed_by: ($semkillers | split("\n") | map(select(. != "")))}
		 + (if $note == "" then {} else {survives: $note} end)')")
done

table=$(printf '%s\n' "${rows[@]}" | jq -s --arg go "$(go env GOVERSION)" \
	--arg commit "$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)" \
	--argjson killed "$killed" --argjson semantic "$semantic" --arg identity "$identity" --argjson pkgs "$(printf '%s\n' "${pkgs[@]}" | jq -R . | jq -s .)" \
	'{go: $go, base_commit: $commit, packages: $pkgs, total: length, killed: $killed,
	  semantic_killed: $semantic, semantic_skip: $identity,
	  survived: (map(select(.status == "survived")) | length),
	  unbuildable: (map(select(.status == "unbuildable")) | length), mutants: .}')
if [ "$out" = - ]; then
	echo "$table"
else
	echo "$table" >"$out"
	echo "mutants: $killed of ${#patches[@]} killed, $semantic semantically; table in $out" >&2
fi
