#!/usr/bin/env bash
# Run the bench smoke list against one build tree: the --smoke mode of
# every JSON-writing ablation, the offload-path and interconnect
# benches, the Fig. 4 placement (AquaPlacer's MILP end to end), and
# the benches behind the CFS, LoRA, long-prompt and elastic figures.
# This is the one list: tools/run_tests.sh --bench-smoke and the CI
# release-bench and sanitize jobs all call it.
#
#   tools/bench_smoke.sh build        # Release or RelWithDebInfo tree
#   tools/bench_smoke.sh build-asan   # the same list under ASan+UBSan
#
# The benches run from the repo root, so the BENCH_*.json files they
# write land there. Any bench failing (or tripping a sanitizer) stops
# the run with its exit status.
set -euo pipefail

if [[ $# -ne 1 ]]; then
    echo "usage: $0 BUILD_DIR" >&2
    exit 2
fi
bench="$(cd "$1" && pwd)/bench"
repo="$(cd "$(dirname "$0")/.." && pwd)"
cd "$repo"

for b in seed_robustness abl_prefix_cache fig13_chatbot abl_overload \
         abl_cluster_prefix abl_tiering abl_kv_quant abl_federation; do
    "$bench/$b" --smoke
done
for b in abl_offload_paths fig03_interconnect abl_interconnect_gen \
         fig04_placement fig01_motivation fig07_long_prompt \
         fig08_lora_rct fig09_cfs fig10_elastic fig12_tensor_sizes \
         fig15_17_appendix_cfs fig18_nvswitch appA2_long_lora \
         abl_cfs_slice; do
    "$bench/$b"
done
