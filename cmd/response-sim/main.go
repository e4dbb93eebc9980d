// Command response-sim runs the paper's dynamic experiments in the
// event-driven simulator: Figure 4 (fat-tree sine wave), Figure 7
// (Click-testbed failover), Figures 8a/8b (ns-2-style adaptation) and
// Figure 9 (streaming application impact), plus the web workload table
// and the large-scale online scenarios (diurnal replay, flash crowd,
// failure storm, rolling repair).
//
// Usage:
//
//	response-sim -fig 4|7|8a|8b|9|web|all
//	response-sim -scenario diurnal|flash|storm|repair|click|replan|srlgstorm|chaos \
//	             [-flows N] [-seed S] [-duration SECONDS] [-power] \
//	             [-fail-rate R] [-chaos-seed S] [-trace events.jsonl|-]
//
// -fail-rate injects control-plane faults into the lifecycle replan
// loop at aggregate rate R (0..1), split across fault classes;
// -chaos-seed draws the injection sequence from its own seed. A run
// that ends in the Degraded fallback exits non-zero.
//
// -trace writes the run's JSONL event trace to a file, or with "-"
// streams it to stdout (the result summary moves to stderr), so a run
// pipes straight into the trace analyzer:
//
//	response-sim -scenario srlgstorm -trace - | response-analyze trace -
package main

import (
	"bufio"
	"flag"
	"fmt"
	"log"
	"os"
	"slices"
	"strings"

	"response/experiments"
	"response/faultinject"
	"response/simulate"
)

// chaosFaults splits one aggregate -fail-rate knob across the fault
// classes: mostly plain replan errors, a sprinkling of infeasibility,
// panics, blown deadlines and artifact corruption.
func chaosFaults(rate float64, seed int64) faultinject.Config {
	return faultinject.Config{
		Seed:           seed,
		ErrorRate:      0.50 * rate,
		InfeasibleRate: 0.10 * rate,
		PanicRate:      0.10 * rate,
		SlowRate:       0.10 * rate,
		CorruptRate:    0.15 * rate,
		TruncateRate:   0.05 * rate,
	}
}

func main() {
	fig := flag.String("fig", "all", "experiment: 4, 7, 8a, 8b, 9, web or all")
	scen := flag.String("scenario", "", "online scenario: "+
		strings.Join(simulate.Scenarios(), ", "))
	flows := flag.Int("flows", 10000, "managed flows for -scenario runs")
	seed := flag.Int64("seed", 1, "scenario seed (identical seed ⇒ identical result)")
	duration := flag.Float64("duration", 6*3600, "simulated seconds for -scenario runs")
	meter := flag.Bool("power", false, "meter power during the scenario")
	failRate := flag.Float64("fail-rate", 0, "aggregate control-plane fault rate (0..1) for -scenario runs")
	chaosSeed := flag.Int64("chaos-seed", 0, "fault-injection seed (default: scenario seed + 1)")
	tracePath := flag.String("trace", "", "write the JSONL event trace of a -scenario run to this file")
	flag.Parse()

	if *scen != "" {
		if valid := simulate.Scenarios(); !slices.Contains(valid, *scen) {
			fmt.Fprintf(os.Stderr, "response-sim: unknown scenario %q\nvalid scenarios: %s\n",
				*scen, strings.Join(valid, ", "))
			os.Exit(2)
		}
		cfg := simulate.Scenario{
			Seed:     *seed,
			Flows:    *flows,
			Duration: *duration,
			Power:    *meter,
		}
		if *failRate < 0 || *failRate > 1 {
			fmt.Fprintf(os.Stderr, "response-sim: -fail-rate %v outside [0, 1]\n", *failRate)
			os.Exit(2)
		}
		if *failRate > 0 {
			cfg.Faults = chaosFaults(*failRate, *chaosSeed)
		}
		// -trace - streams the events to stdout (pipe straight into
		// `response-analyze trace -`); the human-readable result then
		// moves to stderr so the stream stays pure JSONL.
		resOut := os.Stdout
		var flush func()
		if *tracePath == "-" {
			bw := bufio.NewWriter(os.Stdout)
			ew := simulate.NewEventWriter(bw)
			cfg.Events = ew
			resOut = os.Stderr
			flush = func() {
				fail(ew.Err())
				fail(bw.Flush())
				fmt.Fprintf(os.Stderr, "  streamed %d events to stdout\n", ew.Events())
			}
		} else if *tracePath != "" {
			f, err := os.Create(*tracePath)
			fail(err)
			bw := bufio.NewWriter(f)
			ew := simulate.NewEventWriter(bw)
			cfg.Events = ew
			flush = func() {
				fail(ew.Err())
				fail(bw.Flush())
				fail(f.Close())
				fmt.Printf("  wrote %d events to %s\n", ew.Events(), *tracePath)
			}
		}
		res, err := simulate.RunScenario(*scen, cfg)
		fail(err)
		res.Print(resOut)
		if flush != nil {
			flush()
		}
		if !res.Healthy() {
			fmt.Fprintf(os.Stderr,
				"response-sim: scenario %s ended in the Degraded fallback: "+
					"%d failed replan cycles, %d retries, degraded entered %d / exited %d "+
					"(%.0f s pinned all-on) — the control plane never recovered\n",
				*scen, res.ReplanFailed, res.Retries,
				res.DegradedEntered, res.DegradedExited, res.DegradedSec)
			os.Exit(1)
		}
		return
	}

	run := func(name string) {
		switch name {
		case "4":
			res, err := experiments.RunFig4(20)
			fail(err)
			res.Print(os.Stdout)
		case "7":
			res, err := experiments.RunFig7()
			fail(err)
			res.Print(os.Stdout)
		case "8a":
			res, err := experiments.RunFig8a()
			fail(err)
			res.Print(os.Stdout)
		case "8b":
			res, err := experiments.RunFig8b()
			fail(err)
			res.Print(os.Stdout)
		case "9":
			res, err := experiments.RunFig9()
			fail(err)
			res.Print(os.Stdout)
		case "web":
			res, err := experiments.RunWeb()
			fail(err)
			res.Print(os.Stdout)
		default:
			log.Fatalf("unknown experiment %q", name)
		}
	}
	if *fig == "all" {
		for _, name := range []string{"4", "7", "8a", "8b", "9", "web"} {
			run(name)
			fmt.Println()
		}
		return
	}
	run(*fig)
}

func fail(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
