#!/usr/bin/env bash
# The ROADMAP's hand-off rule as a command: exit 1, listing the offenders,
# while anything a session may have started is still running: a Go build,
# test or run (and the binary `go run` built and started), the benchmark,
# svbench, `go tool pprof`, or any other process the session started that
# holds a listening TCP socket (a pprof -http viewer, a -metrics endpoint).
# Run it last, after stopping everything the session started.

# The match is on full argv, so a shell whose command text merely mentions
# `go test` would match too. Such a shell can only be this script's own
# ancestor (it is waiting for us), so the ancestor chain is not a leftover.
# The oldest ancestor below init also dates the session: a listener that is
# older than it (init itself, the machine's own agents) is not the session's.
self=" "
pid=$$
root=$$
while [ "${pid:-0}" -gt 1 ]; do
	self="$self$pid "
	root=$pid
	pid="$(ps -o ppid= -p "$pid" | tr -d ' ')"
done
session_age="$(ps -o etimes= -p "$root" | tr -d ' ')"

left="$(ps -eo pid,args | awk -v self="$self" 'index(self, " " $1 " ") == 0' |
	grep -E '[g]o (test|run|build|tool pprof)|/[p]prof( |$)|/[g]o-build[^ ]*/exe/|[s]vbench|bench_build/[b]enchmark|[.]test( |$)')"

# ss names each listener's owner as users:(("name",pid=N,fd=M)).
for lpid in $(ss -Hltnp 2>/dev/null | grep -o 'pid=[0-9]*' | cut -d= -f2 | sort -un); do
	case "$self" in *" $lpid "*) continue ;; esac
	printf '%s\n' "$left" | awk '{print $1}' | grep -qx "$lpid" && continue
	age="$(ps -o etimes= -p "$lpid" | tr -d ' ')"
	if [ "$lpid" -eq 1 ] || [ -z "$age" ] || [ "$age" -gt "$session_age" ]; then
		continue
	fi
	left="$left${left:+
}$(ps -o pid=,args= -p "$lpid") (listening)"
done

if [ -n "$left" ]; then
	echo "handoff-check: still running:" >&2
	echo "$left" >&2
	exit 1
fi
