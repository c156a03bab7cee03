#!/usr/bin/env python3
"""Prints the geovalid:: functions that no shipped binary links.

A function qualifies when one of the `src/` static libraries defines it as a
text symbol and none of the 37 shipped binaries contains it. The shipped
binaries are the CLI (`geovalid`), `geovalid_loadgen`, one program per
`bench/bench_*.cpp`, one per `examples/*.cpp`, and `geovalid_perfbench`;
tests do not count, so a function that only its own test calls is listed.

Build both trees at -O0, one section per function and per datum, and let the
linker drop every section that nothing references. At -O0 no call is inlined
away, so a function that some shipped code calls is still in that binary:

    cmake -B build-o0 -S . -DCMAKE_BUILD_TYPE=Debug \\
      -DCMAKE_CXX_FLAGS="-O0 -ffunction-sections -fdata-sections" \\
      -DCMAKE_EXE_LINKER_FLAGS="-Wl,--gc-sections"
    cmake -B build-o0-perfbench -S perfbench -DCMAKE_BUILD_TYPE=Debug \\
      -DCMAKE_CXX_FLAGS="-O0 -ffunction-sections -fdata-sections" \\
      -DCMAKE_EXE_LINKER_FLAGS="-Wl,--gc-sections"
    cmake --build build-o0 -j && cmake --build build-o0-perfbench -j
    python3 tools/unused_symbols.py build-o0 build-o0-perfbench

It prints one demangled name per line, sorted, then the count on stderr.
Only out-of-line functions count: the global and local text symbols (nm's
T and t) of the libraries' objects, lambdas excluded. Weak symbols are the
inline functions, template instantiations and implicit members that every
object using them emits, so they are left out. A listed function may still
have callers in tests; check each by grep before deleting it. The script is
a census to run on demand, not a gate.
"""

import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

# nm's letters for a text symbol an object defines as its own, global or
# local; a binary may hold such a function under any type.
OWN_TEXT = {"T", "t"}
ANY_TEXT = {"T", "t", "W"}


def shipped_binaries(build: Path, perfbench_build: Path) -> list[Path]:
    """The 37 shipped programs, named after their sources."""
    paths = [build / "tools" / "geovalid", build / "tools" / "geovalid_loadgen"]
    paths += [build / "bench" / p.stem for p in sorted(REPO.glob("bench/bench_*.cpp"))]
    paths += [build / "examples" / p.stem for p in sorted(REPO.glob("examples/*.cpp"))]
    paths.append(perfbench_build / "geovalid_perfbench")
    return paths


def text_symbols(path: Path, types: set[str]) -> set[str]:
    """Mangled names of the symbols of nm type `types` that `path` defines."""
    out = subprocess.run(
        ["nm", "--defined-only", "--format=posix", str(path)],
        check=True, capture_output=True, text=True,
    ).stdout
    names = set()
    for line in out.splitlines():
        fields = line.split()
        # Archive member headers ("lib.a[x.o]:") have one field.
        if len(fields) >= 2 and fields[1] in types:
            names.add(fields[0])
    return names


def demangle(names: list[str]) -> list[str]:
    out = subprocess.run(
        ["c++filt"], input="\n".join(names) + "\n",
        check=True, capture_output=True, text=True,
    ).stdout
    return out.splitlines()


def main() -> int:
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    build, perfbench_build = (Path(a).resolve() for a in sys.argv[1:])

    libraries = sorted((build / "src").rglob("*.a"))
    if not libraries:
        print(f"unused_symbols: no static libraries under {build / 'src'}",
              file=sys.stderr)
        return 1
    binaries = shipped_binaries(build, perfbench_build)
    missing = [str(b) for b in binaries if not b.is_file()]
    if missing:
        print("unused_symbols: shipped binaries not built:\n  " +
              "\n  ".join(missing), file=sys.stderr)
        return 1

    defined = set().union(*(text_symbols(lib, OWN_TEXT) for lib in libraries))
    linked = set().union(*(text_symbols(b, ANY_TEXT) for b in binaries))
    unused = sorted(defined - linked)
    names = sorted({n for n in demangle(unused)
                    if n.startswith("geovalid::") and "{lambda" not in n})
    for name in names:
        print(name)
    print(f"{len(names)} geovalid:: functions in no shipped binary "
          f"({len(binaries)} binaries, {len(libraries)} libraries)",
          file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
