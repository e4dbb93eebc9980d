package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"time"

	"response"
	"response/controld"
	"response/topogen"
	"response/tracestore"
)

// service is one in-process controld behind an httptest server, with
// the tenants the benchmark registered on it.
type service struct {
	srv     *controld.Server
	ts      *httptest.Server
	tenants []*tenantRef
	next    []int // per client: rounds run so far
}

// tenantRef is the client-side view of one tenant. Exactly one client
// drives each tenant, so its fields need no lock.
type tenantRef struct {
	name      string
	inst      *topogen.Instance // the same instance, generated locally
	simNow    float64
	artifacts [][]byte
}

// tenantConfig is the network of tenant i: the fleet's Waxman
// topologies are fixed (see README.md), the run seed draws their load.
func tenantConfig(i int, sz sizes) topogen.Config {
	return topogen.Config{
		Family: topogen.FamilyWaxman, Size: sz.TenantWaxman, Seed: int64(1000 + i),
		MaxEndpoints: sz.TenantEndpoints,
	}
}

// tenantSpec registers cfg with `flows` managed flows, their diurnal
// phases drawn from workloadSeed, in manual time. Deviation-triggered
// replans are off, so plan work comes only from jobs and every promote
// meets an idle lifecycle manager.
func tenantSpec(name string, cfg topogen.Config, flows int, workloadSeed int64) controld.TenantSpec {
	return controld.TenantSpec{
		Name: name,
		Topology: controld.TopologySpec{Gen: &controld.GenSpec{
			Family: string(cfg.Family), Size: cfg.Size, Seed: cfg.Seed,
			PeakUtil: cfg.PeakUtil, MaxEndpoints: cfg.MaxEndpoints,
		}},
		Workload: &controld.WorkloadSpec{Flows: flows, Seed: workloadSeed},
		Policy:   &controld.PolicySpec{Deviation: 1e6},
	}
}

// newService starts a controld with `workers` plan workers, registers
// one tenant per config, `clients` registrations at a time, and runs
// each tenant's first simulated hour. Its trace store keeps the latest
// 64Ki events, so a run reaches the steady state of a long-running
// daemon — a full ring that evicts — within seconds, instead of
// growing for the whole run.
func (b *bench) newService(cfgs []topogen.Config, flows, workers, clients int) (*service, error) {
	s := &service{
		srv:  controld.New(controld.Opts{Workers: workers, Trace: tracestore.Opts{MaxEvents: 1 << 16}}),
		next: make([]int, clients),
	}
	s.ts = httptest.NewServer(s.srv.Handler())
	for i, cfg := range cfgs {
		inst, err := topogen.Generate(cfg)
		if err != nil {
			s.close()
			return nil, err
		}
		s.tenants = append(s.tenants, &tenantRef{name: fmt.Sprintf("t%d", i), inst: inst})
	}
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < len(cfgs) && errs[c] == nil; i += clients {
				var st controld.TenantStatus
				_, errs[c] = b.call(s, nil, "register", "POST", "/v1/tenants",
					tenantSpec(s.tenants[i].name, cfgs[i], flows, b.cfg.seed*1000+int64(i)), http.StatusCreated, &st)
				if errs[c] == nil && st.Fingerprint != fmt.Sprintf("%016x", s.tenants[i].inst.Topo.Fingerprint()) {
					errs[c] = fmt.Errorf("tenant %s runs topology %s, generated %016x",
						st.Name, st.Fingerprint, s.tenants[i].inst.Topo.Fingerprint())
				}
				if errs[c] == nil {
					// A first simulated hour, so every round has a
					// previous hour to drill into.
					_, errs[c] = b.call(s, nil, "warmup", "POST", "/v1/tenants/"+s.tenants[i].name+"/advance",
						map[string]float64{"sim_sec": 3600}, http.StatusOK, nil)
					s.tenants[i].simNow = 3600
				}
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			s.close()
			return nil, err
		}
	}
	return s, nil
}

// close drains the daemon and stops the server; it returns once every
// tenant loop and job worker has ended.
func (s *service) close() {
	s.ts.Close()
	s.srv.Close()
}

// call issues one REST request inside a "controld" span, checks its
// status and decodes the body into out (a *[]byte takes it raw). It
// returns the wall time in milliseconds and records it as the sample
// http.<route>.
func (b *bench) call(s *service, op *spanRef, route, method, path string, body any, want int, out any) (float64, error) {
	var rd io.Reader
	if body != nil {
		raw, err := json.Marshal(body)
		if err != nil {
			return 0, err
		}
		rd = bytes.NewReader(raw)
	}
	req, err := http.NewRequest(method, s.ts.URL+path, rd)
	if err != nil {
		return 0, err
	}
	sp := op.child("controld", method+" "+route)
	start := time.Now()
	resp, err := s.ts.Client().Do(req)
	var raw []byte
	if err == nil {
		raw, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	ms := msSince(start)
	sp.end()
	if err != nil {
		return ms, fmt.Errorf("%s %s: %w", method, path, err)
	}
	b.sample("http."+route, ms)
	if resp.StatusCode != want {
		if resp.StatusCode == http.StatusConflict || resp.StatusCode == http.StatusServiceUnavailable {
			b.sample("refused", 1)
		}
		return ms, fmt.Errorf("%s %s: status %d, want %d: %s", method, path, resp.StatusCode, want,
			strings.TrimSpace(string(raw)))
	}
	switch o := out.(type) {
	case nil:
	case *[]byte:
		*o = raw
	default:
		if err := json.Unmarshal(raw, out); err != nil {
			return ms, fmt.Errorf("%s %s: decode: %w", method, path, err)
		}
	}
	return ms, nil
}

// jobView is the client's view of a plan job.
type jobView struct {
	ID       string `json:"id"`
	State    string `json:"state"`
	Error    string `json:"error"`
	Artifact string `json:"artifact"`
}

// round runs one closed-loop round on a tenant: advance one simulated
// hour, run a plan job to completion, promote its artifact, drill down
// into the trace of the tenant's previous hour and scrape /metrics. The
// job's artifact is then fetched, untimed, for the post-run check.
func (b *bench) round(s *service, tn *tenantRef) error {
	op := b.rec.op("round " + tn.name)
	defer op.end()
	base := "/v1/tenants/" + tn.name
	start := time.Now()

	var adv struct {
		SimNow float64 `json:"sim_now"`
	}
	ms, err := b.call(s, op, "advance", "POST", base+"/advance", map[string]float64{"sim_sec": 3600}, http.StatusOK, &adv)
	if !b.op(err) {
		return err
	}
	tn.simNow += 3600
	if math.Abs(adv.SimNow-tn.simNow) > 1e-6 {
		b.fail("tenant %s: sim_now %g after advancing to %g", tn.name, adv.SimNow, tn.simNow)
	}
	b.sample("advance_ms", ms)

	job, err := b.runJob(s, op, base)
	if !b.op(err) {
		return err
	}

	var prom struct {
		Result string `json:"result"`
	}
	ms, err = b.call(s, op, "promote", "POST", base+"/promote", map[string]string{"artifact": job.Artifact}, http.StatusOK, &prom)
	if err == nil && prom.Result != "swapping" && prom.Result != "unchanged" {
		err = fmt.Errorf("promote %s: result %q", job.Artifact, prom.Result)
	}
	if !b.op(err) {
		return err
	}
	b.sample("promote_ms", ms)

	ms, err = b.drill(s, op, tn)
	if !b.op(err) {
		return err
	}
	b.sample("trace_query_ms", ms)

	var page []byte
	ms, err = b.call(s, op, "metrics", "GET", "/metrics", nil, http.StatusOK, &page)
	if err == nil && !bytes.Contains(page, []byte(`tenant="`+tn.name+`"`)) {
		err = fmt.Errorf("/metrics has no series of tenant %s", tn.name)
	}
	if !b.op(err) {
		return err
	}
	b.sample("metrics_ms", ms)
	b.sample("step_s", time.Since(start).Seconds())

	var raw []byte
	if _, err := b.call(s, nil, "artifact", "GET", base+"/artifacts/"+job.Artifact, nil, http.StatusOK, &raw); err != nil {
		b.fail("fetch artifact: %v", err)
		return err
	}
	tn.artifacts = append(tn.artifacts, raw)
	return nil
}

// runJob submits a plan job and polls it until it ends. It records the
// job's time from submission to done, in the queue and running.
func (b *bench) runJob(s *service, op *spanRef, base string) (jobView, error) {
	var job jobView
	start := time.Now()
	if _, err := b.call(s, op, "job_submit", "POST", base+"/jobs", nil, http.StatusAccepted, &job); err != nil {
		return job, err
	}
	sp := op.child("controld", "job "+job.ID)
	defer sp.end()
	var running time.Time
	deadline := start.Add(2 * time.Minute)
	for job.State != "done" {
		switch job.State {
		case "failed", "canceled":
			return job, fmt.Errorf("job %s %s: %s", job.ID, job.State, job.Error)
		case "running":
			if running.IsZero() {
				running = time.Now()
			}
		}
		if time.Now().After(deadline) {
			return job, fmt.Errorf("job %s still %s after %v", job.ID, job.State, deadline.Sub(start))
		}
		time.Sleep(time.Millisecond)
		if _, err := b.call(s, sp, "job_poll", "GET", base+"/jobs/"+job.ID, nil, http.StatusOK, &job); err != nil {
			return job, err
		}
	}
	end := time.Now()
	if running.IsZero() {
		running = end // ran between two polls
	}
	b.sample("plan_s", end.Sub(start).Seconds())
	b.sample("job_s", end.Sub(start).Seconds())
	b.sample("job_queue_ms", float64(running.Sub(start).Nanoseconds())/1e6)
	b.sample("job_run_ms", float64(end.Sub(running).Nanoseconds())/1e6)
	return job, nil
}

// drill runs the four-tier trace drill-down on the busiest window of
// the tenant's previous simulated hour and returns its total wall time
// in ms. The store ingests the event stream asynchronously, so the
// hour just advanced may still be arriving; the previous one was
// advanced a round earlier and is still in the ring.
func (b *bench) drill(s *service, op *spanRef, tn *tenantRef) (float64, error) {
	tenant := tn.name
	base := "/v1/tenants/" + tenant + "/trace/"
	var wins struct {
		WindowSec float64                    `json:"window_sec"`
		Windows   []tracestore.WindowSummary `json:"windows"`
	}
	hour := "since=" + strconv.FormatFloat(tn.simNow-7200, 'g', -1, 64) +
		"&until=" + strconv.FormatFloat(tn.simNow-3600, 'g', -1, 64)
	total, err := b.call(s, op, "trace_windows", "GET", base+"windows?"+hour, nil, http.StatusOK, &wins)
	if err != nil {
		return total, err
	}
	w, ok := busiest(wins.Windows)
	if !ok {
		return total, fmt.Errorf("tenant %s: no trace windows", tenant)
	}
	start := strconv.FormatFloat(w.Start, 'g', -1, 64)
	var det tracestore.WindowDetail
	ms, err := b.call(s, op, "trace_summary", "GET", base+"summary?start="+start, nil, http.StatusOK, &det)
	total += ms
	if err != nil {
		return total, err
	}
	var cp tracestore.CriticalPath
	ms, err = b.call(s, op, "trace_critical_path", "GET", base+"critical-path?k=5&start="+start, nil, http.StatusOK, &cp)
	total += ms
	if err != nil {
		return total, err
	}
	var evs struct {
		Events []tracestore.Event `json:"events"`
	}
	until := strconv.FormatFloat(w.Start+wins.WindowSec, 'g', -1, 64)
	ms, err = b.call(s, op, "trace_events", "GET", base+"events?limit=100&since="+start+"&until="+until, nil, http.StatusOK, &evs)
	total += ms
	if err != nil {
		return total, err
	}
	if det.Window.Start != w.Start || cp.Start != w.Start || len(evs.Events) == 0 {
		return total, fmt.Errorf("tenant %s: drill-down of window %g answered summary %g, critical path %g, %d events",
			tenant, w.Start, det.Window.Start, cp.Start, len(evs.Events))
	}
	return total, nil
}

// busiest returns the window with the most events (earliest on ties).
func busiest(ws []tracestore.WindowSummary) (tracestore.WindowSummary, bool) {
	var best tracestore.WindowSummary
	for i, w := range ws {
		if i == 0 || w.Events > best.Events || (w.Events == best.Events && w.Start < best.Start) {
			best = w
		}
	}
	return best, len(ws) > 0
}

// verifyArtifacts checks every plan the jobs produced, after the run.
func (b *bench) verifyArtifacts(s *service) {
	for _, tn := range s.tenants {
		for _, raw := range tn.artifacts {
			p, err := response.ReadPlanFrom(bytes.NewReader(raw), tn.inst.Topo)
			if err != nil {
				b.fail("tenant %s artifact: %v", tn.name, err)
				continue
			}
			b.checkPlan("tenant-"+tn.name, tn.inst, p)
		}
	}
}

// runControldOps registers generated tenants on one in-process
// controld; closed-loop clients then run rounds over their tenants.
func runControldOps(b *bench) error {
	sz := b.cfg.sizes
	cfgs := make([]topogen.Config, sz.Tenants)
	for i := range cfgs {
		cfgs[i] = tenantConfig(i, sz)
	}
	s, err := setup(b, func() (*service, func(), error) {
		s, err := b.newService(cfgs, sz.TenantFlows, sz.Workers, sz.Clients)
		if err != nil {
			return nil, nil, err
		}
		return s, s.close, nil
	})
	if err != nil {
		return err
	}
	defer s.close()
	b.measure(sz.Clients, func(c int) error {
		i := c + sz.Clients*s.next[c]
		if i >= len(s.tenants) {
			s.next[c], i = 0, c
		}
		s.next[c]++
		return b.round(s, s.tenants[i])
	})
	b.verifyArtifacts(s)
	if !b.cfg.traced {
		return nil
	}
	b.probeStore(s)
	// The planner layers, timed directly on the first tenant's instance:
	// its registration plan, then the probes on that plan.
	tn := s.tenants[0]
	pl := response.NewPlanner(response.WithEndpoints(tn.inst.Endpoints))
	op := b.trace.op("probe core")
	plan, _, err := b.timedPlan(op, "Planner.Plan", pl, tn.inst.Topo)
	op.end()
	if !b.op(err) {
		return err
	}
	b.probePlanner(tn.inst, plan)
	b.probeRuntime(tn.inst, plan, pl)
	return nil
}

// probeService runs ServiceRounds rounds against a controld hosting
// the workload's own instance as its single tenant, then probes its
// trace store directly.
func (b *bench) probeService(inst *topogen.Instance) error {
	// A job plans for the live matrix, so every pair must carry a flow
	// for its tables to cover the pairs the check verifies.
	n := len(inst.Endpoints)
	flows := max(b.cfg.sizes.RigFlows, n*(n-1))
	s, err := b.newService([]topogen.Config{inst.Config}, flows, b.cfg.sizes.Workers, 1)
	if err != nil {
		return fmt.Errorf("service probe: %w", err)
	}
	defer s.close()
	for i := 0; i < b.cfg.sizes.ServiceRounds; i++ {
		if err := b.round(s, s.tenants[0]); err != nil {
			return nil // recorded by round
		}
	}
	b.verifyArtifacts(s)
	b.probeStore(s)
	return nil
}

// probeStore times the four trace-store tiers directly, through
// Server.TraceStore, with the parameters of each tenant's drill-down,
// and reads the store's bookkeeping.
func (b *bench) probeStore(s *service) {
	st := s.srv.TraceStore()
	op := b.trace.op("probe tracestore")
	defer op.end()
	tiers := map[string][]float64{}
	timed := func(name string, fn func()) {
		sp := op.child("tracestore", name)
		start := time.Now()
		fn()
		tiers[name] = append(tiers[name], msSince(start))
		sp.end()
	}
	for _, tn := range s.tenants {
		for rep := 0; rep < 3; rep++ {
			var ws []tracestore.WindowSummary
			timed("windows", func() {
				ws = st.Windows(tracestore.WindowQuery{Tenant: tn.name, Since: tn.simNow - 7200, Until: tn.simNow - 3600})
			})
			w, ok := busiest(ws)
			if !ok {
				b.fail("trace store has no windows of tenant %s", tn.name)
				return
			}
			timed("summary", func() { st.Summary(tn.name, w.Start) })
			timed("critical_path", func() { st.CriticalPathQuery(tn.name, w.Start, 5) })
			timed("events", func() {
				st.Events(tracestore.EventQuery{Tenant: tn.name, Since: w.Start, Until: w.Start + st.WindowSec(), Limit: 100})
			})
		}
	}
	for name, v := range tiers {
		b.layer["tracestore."+name+"_ms"] = median(v)
	}
	stats := st.Stats()
	b.layer["tracestore.ingested"] = float64(stats.Ingested)
	b.layer["tracestore.skipped"] = float64(stats.Skipped)
	b.layer["tracestore.evicted"] = float64(stats.Evicted)
}
