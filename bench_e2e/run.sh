#!/bin/sh
# Build the end-to-end benchmark from source and run it; every argument is
# passed on. Run from the repository root, e.g.
#   sh bench_e2e/run.sh --workload detect --seed 42 --seconds 20 --trace 0
exec dune exec --root . --display quiet -- ./bench_e2e/e2e.exe "$@"
