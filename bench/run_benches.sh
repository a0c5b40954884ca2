#!/usr/bin/env bash
# Runs every benchmark binary under <build-dir>/bench and emits one
# BENCH_<name>.json per bench into <out-dir>, so perf results accumulate as
# machine-readable artifacts from PR to PR.
#
#   bench/run_benches.sh [build-dir] [out-dir] [--compare]
#
#   build-dir  defaults to ./build
#   out-dir    defaults to ./bench-results
#   --compare  after the run, diff each fresh BENCH json against the most
#              recent *earlier-dated* entry in <out-dir>/history/ and print
#              per-bench deltas (also written to <out-dir>/BENCH_DIFF.txt,
#              which CI uploads as an artifact); a baseline recorded under
#              another machine context (or none) prints
#              "context differs (<field>: old → new)" instead of deltas
#
# Environment:
#   BENCH_ONLY            substring filter (comma-separated alternatives):
#                         run only matching benches
#   BENCH_TIMEOUT         per-bench timeout in seconds (default 900)
#   HILLVIEW_BENCH_SCALE  dataset scale multiplier, forwarded to the benches
#
# Google-Benchmark-based binaries (bench_single_thread) emit their native
# JSON via --benchmark_out; the self-driving main() benches are wrapped in a
# JSON envelope carrying exit code, wall time and captured stdout. Both
# flavors record where they ran in a "context" object: nproc, the scan
# kernel level (simd), the CMake build type and the dataset scale.
#
# Every result is also appended as a dated copy under <out-dir>/history/
# (<YYYY-MM-DD>_BENCH_<name>.json), so committing bench-results/ accumulates
# the perf trajectory PR over PR instead of overwriting it.

set -u

BUILD_DIR=""
OUT_DIR=""
COMPARE=0
for arg in "$@"; do
  case "$arg" in
    --compare) COMPARE=1 ;;
    *)
      if [ -z "$BUILD_DIR" ]; then
        BUILD_DIR=$arg
      elif [ -z "$OUT_DIR" ]; then
        OUT_DIR=$arg
      else
        echo "error: unexpected argument '$arg'" >&2
        exit 2
      fi
      ;;
  esac
done
BUILD_DIR=${BUILD_DIR:-build}
OUT_DIR=${OUT_DIR:-bench-results}
ONLY=${BENCH_ONLY:-}
TIMEOUT=${BENCH_TIMEOUT:-900}

BENCH_BIN_DIR="$BUILD_DIR/bench"
if [ ! -d "$BENCH_BIN_DIR" ]; then
  echo "error: '$BENCH_BIN_DIR' not found — build first:" >&2
  echo "  cmake -B $BUILD_DIR -S . && cmake --build $BUILD_DIR -j" >&2
  exit 2
fi

# A sanitizer build (CMake drops this marker when HILLVIEW_SANITIZE is set)
# is 5-20x slower than a plain one; recording its numbers into BENCH json /
# history would poison every later --compare. Refuse outright.
if [ -f "$BUILD_DIR/.hillview_sanitize" ]; then
  echo "error: '$BUILD_DIR' was configured with HILLVIEW_SANITIZE=$(cat "$BUILD_DIR/.hillview_sanitize")" >&2
  echo "  sanitizer timings are not benchmarks; use a plain build directory" >&2
  exit 2
fi

mkdir -p "$OUT_DIR"
HISTORY_DIR="$OUT_DIR/history"
STAMP=$(date +%Y-%m-%d)
mkdir -p "$HISTORY_DIR"

# Copies a finished BENCH json into the dated history folder without
# clobbering an earlier same-day run (a second run on one date lands in
# <date>_r02_..., zero-padded so lexicographic order stays chronological
# through 99 same-day runs). Every fresh result and archived path is
# recorded so --compare diffs exactly the benches that ran this invocation
# and excludes this run's own history copies from the baseline pool.
RAN_LIST=$(mktemp)
ARCHIVED_LIST=$(mktemp)
archive_json() {
  local json=$1
  [ -f "$json" ] || return 0
  echo "$json" >> "$RAN_LIST"
  local dest="$HISTORY_DIR/${STAMP}_$(basename "$json")"
  local n=2
  while [ -e "$dest" ]; do
    dest="$HISTORY_DIR/${STAMP}_r$(printf '%02d' "$n")_$(basename "$json")"
    n=$((n + 1))
  done
  cp "$json" "$dest"
  echo "$dest" >> "$ARCHIVED_LIST"
}

# Wraps a finished bench run (stdout file + metadata) into a JSON envelope.
# Lines of the form "METRIC <name> <number>" are lifted into a metrics dict,
# so accuracy/size measurements diff through --compare like timings do.
wrap_json() {
  python3 - "$@" <<'EOF'
import json, sys
name, exit_code, seconds, context, stdout_path, out_path = sys.argv[1:7]
with open(stdout_path, encoding="utf-8", errors="replace") as f:
    lines = f.read().splitlines()
metrics = {}
for line in lines:
    parts = line.split()
    if len(parts) == 3 and parts[0] == "METRIC":
        try:
            metrics[parts[1]] = float(parts[2])
        except ValueError:
            pass
doc = {
    "bench": name,
    "exit_code": int(exit_code),
    "wall_seconds": float(seconds),
    "context": json.loads(context),
    "stdout": lines,
}
if metrics:
    doc["metrics"] = metrics
with open(out_path, "w", encoding="utf-8") as f:
    json.dump(doc, f, indent=2)
    f.write("\n")
EOF
}

# Adds the machine context to a Google Benchmark JSON's own context object.
stamp_context() {
  python3 - "$@" <<'EOF'
import json, sys
path, context = sys.argv[1:3]
with open(path, encoding="utf-8") as f:
    doc = json.load(f)
doc.setdefault("context", {}).update(json.loads(context))
with open(path, "w", encoding="utf-8") as f:
    json.dump(doc, f, indent=2)
    f.write("\n")
EOF
}

scale=${HILLVIEW_BENCH_SCALE:-1}
# Where the results ran. The kernel level follows the scan dispatcher's rule
# (storage/simd_kernels.cc): AVX2 when the CPU has it, unless
# HILLVIEW_FORCE_SCALAR is set to anything but "" or "0".
force_scalar=${HILLVIEW_FORCE_SCALAR:-}
if [ -n "$force_scalar" ] && [ "$force_scalar" != "0" ]; then
  simd=scalar
elif grep -qw avx2 /proc/cpuinfo 2>/dev/null; then
  simd=avx2
else
  simd=scalar
fi
build_type=$(sed -n 's/^CMAKE_BUILD_TYPE:[A-Z]*=//p' \
  "$BUILD_DIR/CMakeCache.txt" 2>/dev/null)
CONTEXT=$(python3 -c '
import json, sys
print(json.dumps({"nproc": int(sys.argv[1]), "simd": sys.argv[2],
                  "build_type": sys.argv[3], "scale": float(sys.argv[4])}))
' "$(nproc)" "$simd" "${build_type:-none}" "$scale")
failures=0
ran=0

for bin in "$BENCH_BIN_DIR"/bench_*; do
  [ -x "$bin" ] || continue
  name=$(basename "$bin")
  if [ -n "$ONLY" ]; then
    match=0
    IFS=',' read -ra only_patterns <<< "$ONLY"
    for pattern in "${only_patterns[@]}"; do
      # A stray empty element (trailing comma) must not match everything.
      [ -n "$pattern" ] || continue
      [[ "$name" == *"$pattern"* ]] && match=1
    done
    [ "$match" -eq 1 ] || continue
  fi
  out_json="$OUT_DIR/BENCH_${name}.json"
  echo "== $name"
  ran=$((ran + 1))

  # Probing the file (flag strings when statically linked, the DT_NEEDED
  # entry when shared) avoids executing a self-driving bench just to detect
  # its kind.
  if grep -q benchmark_out "$bin" || \
     ldd "$bin" 2>/dev/null | grep -q libbenchmark; then
    # Native Google Benchmark JSON.
    if ! timeout "$TIMEOUT" "$bin" \
        --benchmark_out="$out_json" --benchmark_out_format=json; then
      echo "   FAILED: $name" >&2
      failures=$((failures + 1))
    fi
    [ -f "$out_json" ] && stamp_context "$out_json" "$CONTEXT"
    archive_json "$out_json"
    continue
  fi

  stdout_tmp=$(mktemp)
  start=$(date +%s.%N)
  timeout "$TIMEOUT" "$bin" >"$stdout_tmp" 2>&1
  code=$?
  end=$(date +%s.%N)
  seconds=$(python3 -c "print(f'{$end - $start:.3f}')")
  sed 's/^/   /' "$stdout_tmp" | tail -5
  wrap_json "$name" "$code" "$seconds" "$CONTEXT" "$stdout_tmp" "$out_json"
  archive_json "$out_json"
  rm -f "$stdout_tmp"
  if [ "$code" -ne 0 ]; then
    echo "   FAILED: $name (exit $code)" >&2
    failures=$((failures + 1))
  fi
done

echo
echo "ran $ran benches; $failures failed; JSON in $OUT_DIR/"

# --compare: diff each BENCH json produced by THIS run (RAN_LIST — stale
# results for benches that were filtered out are not re-reported as fresh)
# against the newest history entry that predates this run (this run's own
# just-archived copies are excluded via ARCHIVED_LIST). Google-Benchmark
# JSONs compare per-benchmark real_time; envelope JSONs compare
# wall_seconds. A baseline from another machine context is not diffed: a
# 1-CPU debug run against a 4-CPU release run is not a speed-up.
if [ "$COMPARE" -eq 1 ]; then
  python3 - "$OUT_DIR" "$HISTORY_DIR" "$RAN_LIST" "$ARCHIVED_LIST" <<'EOF'
import glob, json, os, sys

out_dir, history_dir, ran_list, archived_list = sys.argv[1:5]
with open(ran_list, encoding="utf-8") as f:
    ran = sorted({os.path.abspath(p) for p in f.read().split() if p})
with open(archived_list, encoding="utf-8") as f:
    archived = {os.path.abspath(p) for p in f.read().split() if p}
lines = []


def fmt_delta(new, old):
    if old <= 0:
        return "n/a"
    pct = 100.0 * (new - old) / old
    return f"{pct:+.1f}%"


CONTEXT_FIELDS = ("nproc", "simd", "build_type", "scale")


def context_diffs(new_doc, old_doc):
    """One line per context field the baseline lacks or records otherwise."""
    new_ctx = new_doc.get("context", {})
    old_ctx = old_doc.get("context", {})
    out = []
    for field in CONTEXT_FIELDS:
        old = old_ctx.get(field)
        if old is None or old != new_ctx.get(field):
            old_text = "none" if old is None else old
            out.append(f"   context differs ({field}: {old_text} → "
                       f"{new_ctx.get(field)})")
    return out


def load(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def load_times(doc):
    """bench-point name -> (value, unit), for either JSON flavor."""
    points = {}
    if "benchmarks" in doc:
        for b in doc["benchmarks"]:
            points[b["name"]] = (float(b["real_time"]),
                                 b.get("time_unit", "ns"))
    elif "wall_seconds" in doc:
        points["wall_seconds"] = (float(doc["wall_seconds"]), "s")
        for name, value in doc.get("metrics", {}).items():
            points[name] = (float(value), "")
    return points


for current in ran:
    base = os.path.basename(current)
    previous = [p for p in sorted(glob.glob(
        os.path.join(history_dir, f"*_{base}")))
        if os.path.abspath(p) not in archived]
    lines.append(f"== {base}")
    if not previous:
        lines.append("   (no earlier history entry to compare against)")
        continue
    baseline = previous[-1]
    lines.append(f"   baseline: {os.path.basename(baseline)}")
    try:
        new_doc, old_doc = load(current), load(baseline)
        new, old = load_times(new_doc), load_times(old_doc)
    except (json.JSONDecodeError, KeyError, ValueError) as e:
        lines.append(f"   (unreadable: {e})")
        continue
    differs = context_diffs(new_doc, old_doc)
    if differs:
        lines.extend(differs)
        continue
    for name, (value, unit) in new.items():
        if name in old:
            old_value = old[name][0]
            lines.append(f"   {name}: {old_value:.3f} -> {value:.3f} {unit} "
                         f"({fmt_delta(value, old_value)})")
        else:
            lines.append(f"   {name}: {value:.3f} {unit} (new)")
    for name in old:
        if name not in new:
            lines.append(f"   {name}: removed")

report = "\n".join(lines) + "\n"
sys.stdout.write(report)
with open(os.path.join(out_dir, "BENCH_DIFF.txt"), "w",
          encoding="utf-8") as f:
    f.write(report)
EOF
fi
rm -f "$RAN_LIST" "$ARCHIVED_LIST"

[ "$failures" -eq 0 ] && [ "$ran" -gt 0 ]
