package main

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"os"
	"regexp"
	"testing"
)

var nameRe = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// benchmarkJSON is the part of BENCHMARK.json the benchmark must agree
// with.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

// TestMetricTables checks that BENCHMARK.json names exactly the
// workloads and metrics the benchmark emits, with the same units and
// directions, and that every name is well formed.
func TestMetricTables(t *testing.T) {
	bj := readBenchmarkJSON(t)
	if len(bj.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the benchmark runs %d", len(bj.Workloads), len(workloads))
	}
	for _, w := range bj.Workloads {
		if _, ok := workloads[w.Name]; !ok || !nameRe.MatchString(w.Name) {
			t.Errorf("workload %q: unknown or malformed", w.Name)
		}
	}
	if len(bj.EndToEnd) != len(endToEnd) {
		t.Errorf("BENCHMARK.json has %d end-to-end metrics, the benchmark emits %d", len(bj.EndToEnd), len(endToEnd))
	}
	for i, m := range bj.EndToEnd {
		if i < len(endToEnd) && (m.Name != endToEnd[i].Name || m.Unit != endToEnd[i].Unit || m.Better != endToEnd[i].Better) {
			t.Errorf("end-to-end metric %d: BENCHMARK.json %s [%s, %s], benchmark %+v", i, m.Name, m.Unit, m.Better, endToEnd[i])
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(bj.PerLayer) != len(perLayer) {
		t.Errorf("BENCHMARK.json has %d per-layer metrics, the benchmark emits %d", len(bj.PerLayer), len(perLayer))
	}
	for i, m := range bj.PerLayer {
		if i < len(perLayer) && (m.Name != perLayer[i].Name || m.Unit != perLayer[i].Unit || m.Better != perLayer[i].Better) {
			t.Errorf("per-layer metric %d: BENCHMARK.json %s [%s, %s], benchmark %+v", i, m.Name, m.Unit, m.Better, perLayer[i])
		}
	}
	for _, list := range [][]metricSpec{endToEnd, perLayer} {
		for _, m := range list {
			if !nameRe.MatchString(m.Name) {
				t.Errorf("metric name %q does not match %s", m.Name, nameRe)
			}
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("%s: better-direction %q", m.Name, m.Better)
			}
		}
	}
}

// tinyRun runs one workload at tiny sizes in-process.
func tinyRun(t *testing.T, workload string, seed int64, traced bool, outDir string) (*bench, result) {
	t.Helper()
	var log bytes.Buffer
	b := newBench(config{
		workload: workload, seed: seed, seconds: 0.05, traced: traced,
		sizes: tinySizes, outDir: outDir,
	}, &log)
	res, err := b.execute(workloads[workload])
	if err != nil {
		t.Fatalf("%s seed %d traced=%v: %v\n%s", workload, seed, traced, err, log.String())
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("%s seed %d traced=%v: %+v, failures %v\n%s", workload, seed, traced, res, b.failures(), log.String())
	}
	return b, res
}

// TestTinyRuns runs every workload untraced and traced, checks that
// every listed metric is emitted with its unit, and that the same seed
// reproduces the same plan fingerprints run after run.
func TestTinyRuns(t *testing.T) {
	for name := range workloads {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			for _, traced := range []bool{false, true} {
				_, res := tinyRun(t, name, 1, traced, dir)
				want := endToEnd
				if traced {
					want = perLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("traced=%v: %d metrics, want %d", traced, len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok || got.Unit != m.Unit {
						t.Errorf("traced=%v: metric %s = %+v, want unit %s", traced, m.Name, got, m.Unit)
					}
				}
				if !traced {
					for _, m := range endToEnd {
						if res.Metrics[m.Name].Value <= 0 {
							t.Errorf("end-to-end metric %s = %g, want > 0", m.Name, res.Metrics[m.Name].Value)
						}
					}
				}
			}
			// A third run of seed 1 in the same directory compares its
			// fingerprints with the two before; a fresh bench must agree.
			a, _ := tinyRun(t, name, 1, false, dir)
			b, _ := tinyRun(t, name, 1, false, t.TempDir())
			for stream, seq := range a.streams {
				other := b.streams[stream]
				for i := 0; i < len(seq) && i < len(other); i++ {
					if seq[i] != other[i] {
						t.Errorf("stream %s plan %d: %s vs %s under one seed", stream, i, seq[i], other[i])
					}
				}
			}
		})
	}
}

// TestSeedChangesInputs checks that every workload's inputs follow the
// seed.
func TestSeedChangesInputs(t *testing.T) {
	a, err := coldInstances(1, fullSizes)
	if err != nil {
		t.Fatal(err)
	}
	b, err := coldInstances(2, fullSizes)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range a {
		same = same && a[i].Fingerprint() == b[i].Fingerprint()
	}
	if same {
		t.Error("cold-plan: seeds 1 and 2 generate the same instances")
	}
	inst, err := driftInstance(tinySizes)
	if err != nil {
		t.Fatal(err)
	}
	d1 := drifted(inst, rand.New(rand.NewSource(1)), tinySizes.DriftSigma)
	d2 := drifted(inst, rand.New(rand.NewSource(2)), tinySizes.DriftSigma)
	if d1.String() == d2.String() {
		t.Error("drift-replan: seeds 1 and 2 draw the same drift")
	}
	cfg := tenantConfig(0, fullSizes)
	if tenantSpec("t0", cfg, 300, 1).Workload.Seed == tenantSpec("t0", cfg, 300, 2).Workload.Seed {
		t.Error("controld-ops: seeds 1 and 2 register the same tenants")
	}
}

// TestUsage checks that a bad invocation fails without a result.
func TestUsage(t *testing.T) {
	var out, errOut bytes.Buffer
	for _, args := range [][]string{
		{"--workload", "nope", "--seed", "1", "--seconds", "1", "--trace", "0"},
		{"--workload", "cold-plan", "--seconds", "0"},
		{"--workload", "cold-plan", "--trace", "2"},
	} {
		if code := run(args, &out, &errOut); code == 0 {
			t.Errorf("%v: exit 0", args)
		}
	}
	if out.Len() != 0 {
		t.Errorf("bad invocations printed %q", out.String())
	}
}
