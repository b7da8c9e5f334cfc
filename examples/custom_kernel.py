#!/usr/bin/env python
"""Protecting your own SPMD kernel: a parallel histogram.

This example shows the full downstream-user workflow on a program that
is *not* part of the benchmark suite:

1. write an SPMD kernel in MiniC (parallel histogram with per-thread
   private counts merged by the owner of each bucket range);
2. protect it with one `BlockWatch(...)` call;
3. check the classification is what you expect;
4. run a small fault-injection campaign against it.

Run:  python examples/custom_kernel.py
"""

from repro import BlockWatch, FaultType

HISTOGRAM = """
// Parallel histogram: per-thread private counts, owner-merged buckets.
global int nprocs;
global int nitems = 128;
global int nbuckets = 16;
global int items[128];
global int counts[512];      // nthreads x nbuckets private stripes
global int hist[16];
global barrier bar;

func bucket_of(int value) : int {
  local int b = value / 8;
  if (b < 0) {               // value-dependent: `none`, promoted
    b = 0;
  }
  if (b >= nbuckets) {
    b = nbuckets - 1;
  }
  return b;
}

func slave() {
  local int procid = tid();
  local int per = nitems / nprocs;
  local int first = procid * per;
  local int stripe = procid * nbuckets;
  // Phase 1: histogram own block into the private stripe.
  local int i;
  for (i = first; i < first + per; i = i + 1) {   // uniform bounds
    local int b = bucket_of(items[i]);
    counts[stripe + b] = counts[stripe + b] + 1;
  }
  barrier(bar);
  // Phase 2: merge — each thread owns a contiguous bucket range.
  local int bper = nbuckets / nprocs;
  local int bfirst = procid * bper;
  local int b2;
  for (b2 = bfirst; b2 < bfirst + bper; b2 = b2 + 1) {
    local int total = 0;
    local int p;
    for (p = 0; p < nprocs; p = p + 1) {          // shared bound
      total = total + counts[p * nbuckets + b2];
    }
    hist[b2] = total;
  }
  barrier(bar);
}
"""

NTHREADS = 4


def fill_inputs(memory):
    memory.set_scalar("nprocs", NTHREADS)
    memory.set_array("items", [(i * 37 + 11) % 128 for i in range(128)])


def main():
    bw = BlockWatch(HISTOGRAM, name="histogram")
    print(bw.report())
    print()

    result = bw.run(NTHREADS, setup=fill_inputs)
    assert result.status == "ok" and not result.detected
    hist = result.memory.get_array("hist")
    print("histogram: %s (sum=%d, expect %d)"
          % (hist, sum(hist), 128))
    assert sum(hist) == 128

    for fault_type in (FaultType.BRANCH_FLIP, FaultType.BRANCH_CONDITION):
        spec = bw.spec(fault=fault_type, nthreads=NTHREADS, injections=40,
                       output_globals=("hist",))
        stats = bw.inject(spec, setup=fill_inputs).stats
        print("%s: coverage %.0f%% -> %.0f%% with BLOCKWATCH"
              % (fault_type.value, 100 * stats.coverage_original,
                 100 * stats.coverage_protected))


if __name__ == "__main__":
    main()
