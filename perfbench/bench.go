package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"time"

	"response"
	"response/internal/verify"
	"response/topogen"
)

// sizes fixes every instance and load size of the three workloads.
type sizes struct {
	ColdFatTree   int `json:"cold_fattree_k"`
	ColdEndpoints int `json:"cold_endpoints"`
	ColdDraws     int `json:"cold_draws"`

	DriftWaxman    int     `json:"drift_waxman_nodes"`
	DriftEndpoints int     `json:"drift_endpoints"`
	DriftFlows     int     `json:"drift_flows"`
	DriftSigma     float64 `json:"drift_sigma"`

	Tenants      int `json:"tenants"`
	TenantWaxman int `json:"tenant_waxman_nodes"`
	// TenantEndpoints keeps every endpoint pair of a tenant carrying at
	// least one of its TenantFlows flows, so plan jobs (which plan for
	// the live matrix) cover the pairs the check verifies.
	TenantEndpoints int `json:"tenant_endpoints"`
	TenantFlows     int `json:"tenant_flows"`
	Clients         int `json:"clients"`
	Workers         int `json:"workers"`
	RigFlows        int `json:"rig_flows"`
	ProbePairs      int `json:"probe_pairs"`
	SetupRepeats    int `json:"setup_repeats"`
	MinSteps        int `json:"min_steps"`
	HeapSteps       int `json:"heap_steps"`
	ServiceRounds   int `json:"service_rounds"`
}

// fullSizes are the benchmark's sizes; the workload notes in
// BENCHMARK.json summarize them.
var fullSizes = sizes{
	ColdFatTree: 6, ColdEndpoints: 17, ColdDraws: 8,
	DriftWaxman: 40, DriftEndpoints: 20, DriftFlows: 1000, DriftSigma: 0.3,
	Tenants: 8, TenantWaxman: 25, TenantEndpoints: 17, TenantFlows: 300,
	Clients: min(2, runtime.NumCPU()), Workers: runtime.NumCPU(),
	RigFlows: 1000, ProbePairs: 64,
	SetupRepeats: 3, MinSteps: 3, HeapSteps: 8, ServiceRounds: 1,
}

// tinySizes keep a whole run within seconds, for the smoke test.
var tinySizes = sizes{
	ColdFatTree: 4, ColdEndpoints: 7, ColdDraws: 2,
	DriftWaxman: 10, DriftEndpoints: 6, DriftFlows: 40, DriftSigma: 0.3,
	Tenants: 2, TenantWaxman: 8, TenantEndpoints: 5, TenantFlows: 24,
	Clients: 2, Workers: 2,
	RigFlows: 40, ProbePairs: 8,
	SetupRepeats: 1, MinSteps: 2, HeapSteps: 2, ServiceRounds: 1,
}

type config struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	sizes    sizes
	outDir   string
}

// envStamp records where a result was measured, so results from
// different machines are never compared silently.
type envStamp struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Traced     bool    `json:"traced"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"nproc"`
	CPUModel   string  `json:"cpu_model"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	Source     string  `json:"source_digest"`
	Sizes      sizes   `json:"sizes"`
}

func stampEnv(cfg config) envStamp {
	return envStamp{
		Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds, Traced: cfg.traced,
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		CPUModel: cpuModel(), GoVersion: runtime.Version(), Commit: commit(),
		Source: sourceDigest(), Sizes: cfg.sizes,
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// commit is the VCS revision the binary was built from, when the build
// could stamp one ("unknown" in a checkout without VCS metadata).
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}

// sourceDigest hashes every Go source and go.mod under the working
// directory, hidden directories excluded: it names the code a run
// measured where the checkout carries no VCS metadata.
func sourceDigest() string {
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && path != "." && strings.HasPrefix(d.Name(), "."):
			return filepath.SkipDir
		case d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod"):
			return nil
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", path, len(raw))
		h.Write(raw)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// bench is the state of one run: samples per phase, operation counts,
// correctness failures, produced-plan quality and the span recorder.
type bench struct {
	cfg    config
	log    io.Writer
	env    envStamp
	detail map[string]float64

	// trace is the traced run's recorder; rec is the recorder of the
	// current phase (nil while untraced).
	trace *recorder
	rec   *recorder

	// phase 0 is the untraced loop, 1 the traced loop and 2 the probes
	// after it; looping is set while a loop runs. wall, done and
	// checkSec measure the untraced loop: its length, its completed
	// operations and the time its output checks took.
	mu        sync.Mutex
	phase     int
	looping   bool
	samples   [3]map[string][]float64
	wall      float64
	done      int
	checkSec  float64
	setupSec  []float64
	attempted int
	failed    int
	failMsgs  []string
	heapPeak  uint64
	powerPct  []float64
	share     []float64
	streams   map[string][]string
	layer     map[string]float64
}

func newBench(cfg config, log io.Writer) *bench {
	b := &bench{
		cfg: cfg, log: log, env: stampEnv(cfg),
		detail:  map[string]float64{},
		samples: [3]map[string][]float64{{}, {}, {}},
		streams: map[string][]string{},
		layer:   map[string]float64{},
	}
	if cfg.traced {
		b.trace = newRecorder()
	}
	return b
}

// execute runs the workload and assembles the result.
func (b *bench) execute(runner func(*bench) error) (result, error) {
	if err := runner(b); err != nil {
		return result{}, err
	}
	b.checkStreams()
	res := result{Attempted: b.attempted, Failed: b.failed, Metrics: map[string]metricValue{}}
	if res.Attempted == 0 {
		return result{}, fmt.Errorf("no operation attempted")
	}
	var err error
	if b.cfg.traced {
		err = b.layerMetrics(res.Metrics)
	} else {
		err = b.endToEndMetrics(res.Metrics)
	}
	if err != nil {
		return result{}, err
	}
	b.detailMetrics()
	res.Correct = b.failed == 0
	return res, nil
}

func (b *bench) logf(format string, args ...any) {
	fmt.Fprintf(b.log, "perfbench: "+format+"\n", args...)
}

// setup runs build SetupRepeats times, timing each, and keeps the
// last result; earlier ones are torn down with their closer.
func setup[T any](b *bench, build func() (T, func(), error)) (T, error) {
	var out T
	for i := 0; i < b.cfg.sizes.SetupRepeats; i++ {
		if i > 0 {
			runtime.GC() // the torn-down set-up's garbage is not the next one's cost
		}
		start := time.Now()
		v, closer, err := build()
		if err != nil {
			return out, fmt.Errorf("setup: %w", err)
		}
		b.setupSec = append(b.setupSec, time.Since(start).Seconds())
		if i < b.cfg.sizes.SetupRepeats-1 && closer != nil {
			closer()
			continue
		}
		out = v
	}
	b.sampleHeap()
	return out, nil
}

// measure runs `clients` closed loops of step until the measuring time
// is spent, at least MinSteps steps per client (split over the phases),
// sampling the heap after each of a client's first HeapSteps steps. A traced run measures twice, half
// the time each: untraced, then with spans recorded, so that the
// difference of the two is the tracing overhead; it then leaves the
// recorder on for the probes. A step that returns an error has
// recorded it already and stops its client.
func (b *bench) measure(clients int, step func(client int) error) {
	phases := 1
	if b.cfg.traced {
		phases = 2
	}
	per := time.Duration(b.cfg.seconds / float64(phases) * float64(time.Second))
	minSteps := (b.cfg.sizes.MinSteps + phases - 1) / phases
	for p := 0; p < phases; p++ {
		b.phase = p
		b.rec = nil
		if p == 1 {
			b.rec = b.trace
		}
		start := time.Now()
		deadline := start.Add(per)
		b.looping = true
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for n := 0; n < minSteps || time.Now().Before(deadline); n++ {
					if err := step(c); err != nil {
						b.logf("client %d stopped: %v", c, err)
						return
					}
					if n < b.cfg.sizes.HeapSteps {
						b.sampleHeap()
					}
				}
			}(c)
		}
		wg.Wait()
		if p == 0 {
			b.wall = time.Since(start).Seconds()
		}
		b.looping = false
	}
	if b.cfg.traced {
		b.phase = 2
	}
}

// op counts one attempted operation and its outcome.
func (b *bench) op(err error) bool {
	b.mu.Lock()
	b.attempted++
	if b.looping && b.phase == 0 {
		b.done++
	}
	b.mu.Unlock()
	if err != nil {
		b.fail("%v", err)
		return false
	}
	return true
}

// fail records a failed operation or check.
func (b *bench) fail(format string, args ...any) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.failed++
	if len(b.failMsgs) < 20 {
		b.failMsgs = append(b.failMsgs, fmt.Sprintf(format, args...))
	}
}

func (b *bench) failures() []string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]string(nil), b.failMsgs...)
}

// sample records one measurement of the current phase.
func (b *bench) sample(name string, v float64) {
	b.mu.Lock()
	b.samples[b.phase][name] = append(b.samples[b.phase][name], v)
	b.mu.Unlock()
}

var heapSample = []metrics.Sample{{Name: "/gc/heap/live:bytes"}}

// sampleHeap runs a full collection and folds the live heap into the
// peak. It runs after set-up and between closed-loop steps, outside
// every timed call, so the peak is the largest state a workload
// retains from step to step. Only a fixed number of steps is sampled:
// state that grows with every step (the runtime's per-swap and
// per-round bookkeeping) would otherwise make a faster program read as
// a larger one.
func (b *bench) sampleHeap() {
	runtime.GC()
	b.mu.Lock()
	defer b.mu.Unlock()
	metrics.Read(heapSample)
	if v := heapSample[0].Value; v.Kind() == metrics.KindUint64 && v.Uint64() > b.heapPeak {
		b.heapPeak = v.Uint64()
	}
}

// checkPlan verifies a produced plan against the instance it was
// planned for, outside the timed region: every table invariant must
// hold. It records the plan's always-on power and capacity share and
// appends its fingerprint to the named stream.
func (b *bench) checkPlan(stream string, inst *topogen.Instance, p *response.Plan) {
	start := time.Now()
	rep := verify.CheckTables(inst.Topo, p.Tables(), verify.Opts{TM: inst.Shape, NetScale: inst.MaxScale})
	pct := 100 * response.NetworkWatts(inst.Topo, response.Cisco12000{}, p.AlwaysOnSet()) /
		response.FullWatts(inst.Topo, response.Cisco12000{})
	b.mu.Lock()
	b.attempted++
	b.powerPct = append(b.powerPct, pct)
	if inst.MaxScale > 0 {
		b.share = append(b.share, rep.TableScale/inst.MaxScale)
	}
	b.streams[stream] = append(b.streams[stream], fmt.Sprintf("%016x", p.Fingerprint()))
	if b.looping && b.phase == 0 {
		b.checkSec += time.Since(start).Seconds()
	}
	b.mu.Unlock()
	if !rep.Ok() {
		b.fail("plan %016x of %s: %v", p.Fingerprint(), inst.Topo.Name, rep.Err())
	}
}

// checkStreams compares this run's plan fingerprints with the ones an
// earlier run of the same workload and seed on the same sources left
// in the checkout: the same seed must reproduce the same plans, run
// after run. It then records the longer of the two sequences per
// stream.
func (b *bench) checkStreams() {
	if len(b.streams) == 0 {
		return
	}
	dir := filepath.Join(b.cfg.outDir, "fingerprints")
	path := filepath.Join(dir, fmt.Sprintf("%s-s%d-%s.json", b.cfg.workload, b.cfg.seed, b.env.Source))
	prev := map[string][]string{}
	if raw, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(raw, &prev); err != nil {
			b.logf("ignoring unreadable %s: %v", path, err)
			prev = map[string][]string{}
		}
	}
	for name, seq := range b.streams {
		old := prev[name]
		for i := 0; i < len(seq) && i < len(old); i++ {
			if seq[i] != old[i] {
				b.fail("stream %s plan %d: fingerprint %s, an earlier run of seed %d produced %s",
					name, i, seq[i], b.cfg.seed, old[i])
				break
			}
		}
		if len(seq) > len(old) {
			prev[name] = seq
		}
	}
	raw, err := json.Marshal(prev)
	if err == nil {
		err = os.MkdirAll(dir, 0o755)
	}
	if err == nil {
		err = os.WriteFile(path, raw, 0o644)
	}
	if err != nil {
		b.logf("recording fingerprints: %v", err)
	}
}

// endToEndMetrics fills the untraced run's metrics.
func (b *bench) endToEndMetrics(out map[string]metricValue) error {
	s := b.samples[0]
	vals := map[string]float64{
		"setup_s":             median(b.setupSec),
		"plan_s":              median(s["plan_s"]),
		"step_s":              median(s["step_s"]),
		"ops_per_s":           float64(b.done) / (b.wall - b.checkSec),
		"peak_heap_mb":        float64(b.heapPeak) / (1 << 20),
		"always_on_power_pct": mean(b.powerPct),
		"table_share":         mean(b.share),
	}
	return emit(out, endToEnd, vals)
}

// allPhases returns the samples of name from every phase.
func (b *bench) allPhases(name string) []float64 {
	var v []float64
	for _, s := range b.samples {
		v = append(v, s[name]...)
	}
	return v
}

// layerMetrics fills the traced run's metrics: the probes' values, the
// planner stage times, the REST call medians, each layer's self time
// and the tracing overhead.
func (b *bench) layerMetrics(out map[string]metricValue) error {
	vals := map[string]float64{}
	for k, v := range b.layer {
		vals[k] = v
	}
	// Stage times are means per timed plan, so that each stage's share
	// of a plan is its share of the planner's time.
	for _, stage := range []string{"always_on", "on_demand", "failover", "validate"} {
		name := "core." + stage + "_s"
		vals[name] = mean(b.allPhases(name))
	}
	// A REST route's own cost is its wall time minus the direct call
	// into the layer behind it, where the probes made one.
	for _, m := range perLayer {
		route, ok := strings.CutPrefix(m.Name, "controld.http_ms.")
		if !ok {
			continue
		}
		direct := 0.0
		if tier, ok := strings.CutPrefix(route, "trace_"); ok {
			direct = b.layer["tracestore."+tier+"_ms"]
		}
		vals[m.Name] = median(b.allPhases("http."+route)) - direct
	}
	vals["controld.job_queue_ms"] = median(b.allPhases("job_queue_ms"))
	vals["controld.job_run_ms"] = median(b.allPhases("job_run_ms"))
	vals["controld.refused"] = float64(len(b.allPhases("refused")))
	self := b.trace.selfTime()
	for _, l := range layers {
		vals["self_s."+l] = self[l]
	}
	for _, name := range overheadOf {
		vals["overhead."+name] = median(b.samples[1][name]) - median(b.samples[0][name])
	}
	return emit(out, perLayer, vals)
}

// emit copies every listed metric into out; a metric the run did not
// measure is an error, never a silent zero.
func emit(out map[string]metricValue, specs []metricSpec, vals map[string]float64) error {
	var missing []string
	for _, m := range specs {
		v, ok := vals[m.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			missing = append(missing, m.Name)
			continue
		}
		out[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	if len(missing) > 0 {
		return fmt.Errorf("metrics not measured: %s", strings.Join(missing, ", "))
	}
	return nil
}

// detailMetrics summarizes every per-operation sample of the untraced
// phase under the workload's own operation names, with their counts:
// the median, and the highest of p90/p95/p99 that has at least ten
// samples beyond it.
func (b *bench) detailMetrics() {
	for name, v := range b.samples[0] {
		if strings.Contains(name, ".") {
			continue // planner stages: reported by traced runs
		}
		b.detail[name+"_n"] = float64(len(v))
		b.detail[name+"_p50"] = median(v)
		for _, p := range []float64{99, 95, 90} {
			if float64(len(v))*(100-p)/100 >= 10 {
				b.detail[fmt.Sprintf("%s_p%.0f", name, p)] = percentile(v, p)
				break
			}
		}
	}
	b.detail["failed_ops_frac"] = float64(b.failed) / float64(max(b.attempted, 1))
}

// median returns the middle of v (NaN when empty).
func median(v []float64) float64 { return percentile(v, 50) }

// percentile interpolates the p-th percentile of v linearly between
// closest ranks (NaN when empty).
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}
