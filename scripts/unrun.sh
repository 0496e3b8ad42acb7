#!/usr/bin/env bash
# Checks the functions no run reaches against an allowlist:
#
#   bash scripts/unrun.sh FUNC_TXT ALLOWLIST
#
# FUNC_TXT is the `go tool cover -func` output scripts/cover.sh writes.
# ALLOWLIST has one line per function that may read 0.0%:
#
#   internal/x/file.go Func # reason: why no run reaches it
#
# A method is keyed by its name alone, so a file with three unrun
# methods of one name needs three lines. Blank lines and lines starting
# with # are ignored. The reason must start with one of the prefixes in
# the reasons list below.
#
# Exits 1, naming each function, when a function reads 0.0% and has no
# line, when a line names a function that ran or no longer exists (a
# `timing:` line may: a wall-clock race decides whether it runs), or
# when a line is malformed. Exits 0 otherwise.
set -euo pipefail

if [ $# -ne 2 ]; then
	echo "usage: bash scripts/unrun.sh FUNC_TXT ALLOWLIST" >&2
	exit 2
fi

awk '
BEGIN {
	n = split("error path:|negative control:|fuzz/reflection entry:|interface:|test observation point:|shared test oracle:|public API:|timing:", reasons, "|")
	bad = 0
}
# The coverage report: decoupling/path/file.go:LINE:<tab>Func<tab>PCT%
FNR == NR {
	if ($1 == "total:") next
	file = $1
	sub(/^decoupling\//, "", file)
	sub(/:[0-9]+:$/, "", file)
	key = file " " $2
	seen[key]++
	if ($NF == "0.0%") unrun[key]++
	next
}
/^[[:space:]]*(#|$)/ { next }
{
	hash = index($0, "#")
	reason = hash ? substr($0, hash + 1) : ""
	sub(/^[[:space:]]+/, "", reason)
	head = hash ? substr($0, 1, hash - 1) : $0
	if (split(head, f, " ") != 2) {
		printf "%s:%d: want \"path Func # reason\": %s\n", FILENAME, FNR, $0
		bad = 1
		next
	}
	kind = ""
	for (i = 1; i <= n; i++)
		if (index(reason, reasons[i]) == 1) kind = reasons[i]
	if (kind == "" || length(reason) == length(kind)) {
		printf "%s:%d: no reason from the list for %s %s\n", FILENAME, FNR, f[1], f[2]
		bad = 1
	}
	key = f[1] " " f[2]
	allowed[key]++
	if (kind == "timing:") timing[key]++
}
END {
	for (key in unrun)
		for (i = allowed[key]; i < unrun[key]; i++) {
			printf "unrun: %s reads 0.0%% and has no allowlist line\n", key
			bad = 1
		}
	for (key in allowed) {
		stale = allowed[key] - unrun[key] - timing[key]
		for (i = 0; i < stale; i++) {
			if (seen[key] > unrun[key])
				printf "ran: %s is allowlisted but a run reached it; delete its line\n", key
			else if (seen[key])
				printf "gone: %s has more allowlist lines than functions; delete one\n", key
			else
				printf "gone: %s is allowlisted but no such function exists; delete its line\n", key
			bad = 1
		}
	}
	exit bad
}
' "$1" "$2" | sort
