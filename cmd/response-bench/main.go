// Command response-bench runs the complete evaluation — every figure
// and table of the paper — and prints paper-style output with the
// published numbers alongside for comparison. This is the one-shot
// reproduction entry point; see EXPERIMENTS.md for the recorded
// paper-vs-measured table.
//
// With -gen it instead runs the generated-topology scale sweep: plan
// time and hot-swap cost over fat-tree and Waxman instances (to 245
// and 200 nodes), every plan vetted by the invariant checker, with the
// result written as JSON (default BENCH_gen.json). Any invariant
// violation makes the run exit non-zero, so CI can gate on it.
//
// With -warm it runs the warm-start replan benchmark: for each
// "family:size" of -warmspec it times a cold plan and a warm replan
// seeded from it, printing the speedup. -warmgate N makes the run exit
// non-zero if any warm replan exceeds N milliseconds — the CI
// planner-scaling gate.
//
// Usage:
//
//	response-bench [-quick]
//	response-bench -gen [-quick] [-genout BENCH_gen.json]
//	response-bench -warm [-warmspec fattree:14] [-warmgate 2000]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"response/experiments"
	"response/topology"
)

func main() {
	quick := flag.Bool("quick", false, "smaller traces (2 days, coarser strides); with -gen, small sweep sizes")
	gen := flag.Bool("gen", false, "run the generated-topology scale sweep instead of the figure suite")
	genout := flag.String("genout", "BENCH_gen.json", "output path of the -gen sweep JSON")
	warm := flag.Bool("warm", false, "run the warm-start replan benchmark instead of the figure suite")
	warmspec := flag.String("warmspec", "fattree:8,fattree:14,waxman:50", "comma-separated family:size list for -warm")
	warmgate := flag.Float64("warmgate", 0, "with -warm, exit non-zero if any warm replan exceeds this many ms (0 = no gate)")
	tracebench := flag.Bool("trace", false, "run the trace-store ingest/query benchmark instead of the figure suite")
	traceout := flag.String("traceout", "BENCH_trace.json", "output path of the -trace benchmark JSON")
	traceevents := flag.Int("traceevents", 1<<20, "with -trace, synthetic stream size in events (-quick divides by 8)")
	flag.Parse()

	if *gen {
		runGenSweep(*quick, *genout)
		return
	}
	if *warm {
		runWarmBench(*warmspec, *warmgate)
		return
	}
	if *tracebench {
		n := *traceevents
		if *quick {
			n /= 8
		}
		runTraceBench(n, *traceout)
		return
	}

	days, stride := 8, 2
	if *quick {
		days, stride = 2, 4
	}
	start := time.Now()
	section := func(name string) {
		fmt.Printf("\n=== %s (t+%s) ===\n", name, time.Since(start).Round(time.Second))
	}

	section("Figure 1a")
	experiments.RunFig1a(days).Print(os.Stdout)

	section("Figures 1b / 2a / 2b(GÉANT)")
	fb, err := experiments.RunFig1b(days, stride)
	fail(err)
	fb.Print(os.Stdout)
	fmt.Println()
	fb.PrintFig2a(os.Stdout)

	section("Figure 2b")
	f2b, err := experiments.RunFig2b(days, stride, 2, 12)
	fail(err)
	f2b.Print(os.Stdout)

	section("Figure 4")
	f4, err := experiments.RunFig4(20)
	fail(err)
	f4.Print(os.Stdout)

	section("Figure 5")
	f5, err := experiments.RunFig5(days)
	fail(err)
	f5.Print(os.Stdout)

	section("Figure 6")
	f6, err := experiments.RunFig6()
	fail(err)
	f6.Print(os.Stdout)

	section("Figure 7")
	f7, err := experiments.RunFig7()
	fail(err)
	f7.Print(os.Stdout)

	section("Figure 8a")
	f8a, err := experiments.RunFig8a()
	fail(err)
	f8a.Print(os.Stdout)

	section("Figure 8b")
	f8b, err := experiments.RunFig8b()
	fail(err)
	f8b.Print(os.Stdout)

	section("Figure 9")
	f9, err := experiments.RunFig9()
	fail(err)
	f9.Print(os.Stdout)

	section("Web workload")
	web, err := experiments.RunWeb()
	fail(err)
	web.Print(os.Stdout)

	section("§4.1 always-on capacity share")
	for _, t := range []*topology.Topology{topology.NewGeant(), topology.NewGenuity()} {
		share, err := experiments.RunAlwaysOnShare(t)
		fail(err)
		fmt.Printf("  %s: always-on paths carry %.0f%% of OSPF-routable volume (paper: ≈50%%)\n",
			share.Topology, share.Share*100)
	}

	section("§4.2 stress-exclusion sensitivity")
	sweep, err := experiments.RunStressSweep([]float64{0, 0.1, 0.2, 0.3, 0.4})
	fail(err)
	sweep.Print(os.Stdout)

	fmt.Printf("\ntotal runtime: %s\n", time.Since(start).Round(time.Second))
}

func fail(err error) {
	if err != nil {
		log.Fatal(err)
	}
}

// runGenSweep executes the generated-topology sweep, prints the table,
// writes the JSON artifact and exits non-zero on invariant violations.
func runGenSweep(quick bool, out string) {
	start := time.Now()
	sweep, err := experiments.RunGeneratedSweep(experiments.GenSweepOpts{Quick: quick})
	fail(err)
	sweep.Print(os.Stdout)
	f, err := os.Create(out)
	fail(err)
	fail(sweep.WriteJSON(f))
	fail(f.Close())
	fmt.Printf("\nwrote %s in %s\n", out, time.Since(start).Round(time.Millisecond))
	if n := sweep.Violations(); n > 0 {
		log.Fatalf("generated sweep found %d invariant violation(s)", n)
	}
}

// runTraceBench executes the trace-store ingest/query benchmark,
// prints the table and writes the JSON artifact. A top-ranked
// critical-path link outside the synthetic burst makes the run exit
// non-zero — the CI diagnosis gate.
func runTraceBench(events int, out string) {
	start := time.Now()
	bench, err := experiments.RunTraceBench(events, 0)
	fail(err)
	bench.Print(os.Stdout)
	f, err := os.Create(out)
	fail(err)
	fail(bench.WriteJSON(f))
	fail(f.Close())
	fmt.Printf("\nwrote %s in %s\n", out, time.Since(start).Round(time.Millisecond))
	if !bench.CriticalTopIsBurst {
		log.Fatal("critical-path query did not rank a burst link first")
	}
}

// runWarmBench executes the warm-start replan benchmark and applies
// the optional latency gate.
func runWarmBench(spec string, gateMs float64) {
	start := time.Now()
	bench, err := experiments.RunWarmBench(spec)
	fail(err)
	bench.Print(os.Stdout)
	fmt.Printf("\ntotal runtime: %s\n", time.Since(start).Round(time.Millisecond))
	if gateMs > 0 && bench.MaxWarmMs() > gateMs {
		log.Fatalf("warm replan took %.1f ms, gate is %.0f ms", bench.MaxWarmMs(), gateMs)
	}
}
