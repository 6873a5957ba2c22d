#!/usr/bin/env bash
# Entry point for the benchmark driver (the command of BENCHMARK.json). It
# builds the benchmark from the checkout it is started in and runs it with the
# driver's flags. Everything the Go toolchain writes — build cache, module
# path, its own settings — is redirected under .bench_build, so a run reads
# and writes nothing outside the checkout. By hand, `go run ./benchmark`
# does the same with your own cache.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/home"
env -u XDG_CACHE_HOME -u XDG_CONFIG_HOME \
	HOME="$build/home" GOCACHE="$build/go-cache" GOPATH="$build/gopath" GOTOOLCHAIN=local \
	go build -o "$build/benchmark" ./benchmark
exec "$build/benchmark" "$@"
