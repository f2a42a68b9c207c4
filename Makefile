.PHONY: build test check bench clean

build:
	dune build @all

test:
	dune runtest

# The whole gate: the build and the tier-1 suite, which drives every
# binary end to end (test/test_cli.ml).
check: build test

bench:
	dune exec bench/main.exe

clean:
	dune clean
