package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"fenrir/internal/core"
	"fenrir/internal/snapshot"
)

// The serve workloads drive a fresh `fenrir -serve` process over
// loopback HTTP from this process. The load is a closed loop on at most
// nproc keep-alive connections: each connection belongs to one worker,
// each tenant to one worker, and a worker sends a tenant's next epoch
// only after the previous one came back 202 — a producer that runs ahead
// gets out-of-order 400s. Every segment of epochs ends with a barrier
// that polls /status until all accepted observations show as appended;
// an observation counts as done only then.

const (
	loadConns = 2 // closed-loop connections (nproc of the reference host)
	rssEvery  = 20 * time.Millisecond
	// Untimed warm-up epochs per tenant and session: the fleet's 1024
	// tenants warm the daemon in 2, the deep workload's 8 need 8.
	fleetWarm = 2
	deepWarm  = 8
	// serveSessions fresh daemons run one after the other in every serve
	// run, each over the same inputs; medians are taken across them.
	serveSessions = 3
)

var fleetShape = streamShape{networks: 16, unknown: 0.05, flip: 0.02, modes: 3, dwell: 40, moved: 0.5}

const (
	fleetTenants  = 1024
	fleetSegment  = 2     // epochs per barrier
	fleetNominal  = 10000 // obs/s, sizes the timed epochs from --seconds
	deepTenants   = 8
	deepDepth     = 1024 // epochs in each restored checkpoint
	deepSegment   = 8
	deepNominal   = 470 // obs/s
	deepQueryStep = 8   // GET mode, events and heatmap every 8th epoch per tenant
)

var deepShape = streamShape{networks: 256, unknown: 0.05, flip: 0.01, modes: 4, dwell: 60, moved: 0.5}

// timedEpochs turns --seconds into a fixed epoch count per tenant.
func timedEpochs(seconds, tenants int, nominal float64) int {
	n := int(math.Round(float64(seconds) * nominal / float64(tenants)))
	return max(n, 8)
}

// tenantLoad is one tenant's generated stream and its tally.
type tenantLoad struct {
	name     string
	s        *stream
	accepted int64
}

func tenantSpec(s *stream) []byte {
	raw, _ := json.Marshal(map[string]any{"networks": s.networks, "start": streamStart})
	return raw
}

// tenantMonitor builds the monitor the daemon builds for tenantSpec:
// default schedule length, detection and clustering, no window.
func tenantMonitor(s *stream) *core.Monitor {
	space := core.NewSpace(s.networks)
	detect := core.DefaultDetectOptions()
	return core.NewMonitorOpts(space, streamSchedule(1<<20), core.MonitorOptions{Mode: core.PessimisticUnknown, Detect: detect})
}

// loadSegment is one barrier-to-barrier stretch of the closed loop. Its
// rate and read times are steal-corrected: scaled by the share of the
// stretch the hypervisor left this machine (see stealSince). POST times
// are not: a sub-millisecond request is rarely hit by steal, so scaling
// its median by the stretch's share would only move it with the host.
type loadSegment struct {
	rate        float64   // obs/s
	post, query []float64 // ms
	status      []float64 // ms, the barrier's GET /status polls
}

// loadStats collects one phase of the closed loop.
type loadStats struct {
	segs      []loadSegment
	attempted int64
	failed    int64 // non-2xx other than 429
	retries   int64 // 429s, retried
	obs       int64
}

// runLoad sends epochs [from, to) of every tenant in segments, with
// queries every queryStep epochs when queryStep > 0. baseline is the
// daemon's append count before the phase plus everything accepted so
// far; it is advanced as observations become visible.
func runLoad(c *client, tenants []*tenantLoad, from, to, segment, queryStep int, baseline *uint64) (*loadStats, error) {
	st := &loadStats{}
	for seg := from; seg < to; seg += segment {
		end := min(seg+segment, to)
		bodies := make([][][]byte, len(tenants))
		for t, tl := range tenants {
			for e := seg; e < end; e++ {
				bodies[t] = append(bodies[t], tl.s.body(e))
			}
		}
		type workerOut struct {
			post, query                []float64
			attempted, failed, retries int64
			accepted                   int64
			err                        error
		}
		outs := make([]workerOut, loadConns)
		host0, t0 := readHostCPU(), time.Now()
		var wg sync.WaitGroup
		for w := 0; w < loadConns; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				o := &outs[w]
				for e := seg; e < end; e++ {
					for t := w; t < len(tenants); t += loadConns {
						tl := tenants[t]
						path := "/v1/tenants/" + tl.name
						for {
							o.attempted++
							code, _, lat, err := c.do("POST", path+"/observations", bodies[t][e-seg])
							if err != nil {
								o.err = err
								return
							}
							if code == http.StatusTooManyRequests {
								o.retries++
								o.attempted--
								time.Sleep(time.Millisecond)
								continue
							}
							if code != http.StatusAccepted {
								o.failed++
							} else {
								o.accepted++
								tl.accepted++
								o.post = append(o.post, msOf(lat))
							}
							break
						}
						if queryStep > 0 && e%queryStep == 0 {
							// The reader reads its own write: it waits until
							// the tenant shows epoch e appended, so the reads
							// never race that tenant's in-flight append (GET
							// /mode answers a spurious 404 "latest observation
							// is in no mode" when an append lands between its
							// LiveModes and Len calls). Writes to the other
							// connection's tenants go on meanwhile.
							if err := c.waitHistory(path, e+1); err != nil {
								o.err = err
								return
							}
							// One read of the tenant is the three GETs a
							// dashboard refresh makes; its latency is their
							// sum.
							var read time.Duration
							for _, q := range []string{"/mode", "/events", "/heatmap"} {
								o.attempted++
								code, _, lat, err := c.do("GET", path+q, nil)
								if err != nil {
									o.err = err
									return
								}
								if code != http.StatusOK {
									o.failed++
								}
								read += lat
							}
							o.query = append(o.query, msOf(read))
						}
					}
				}
			}(w)
		}
		wg.Wait()
		var accepted int64
		var sg loadSegment
		for _, o := range outs {
			if o.err != nil {
				return nil, o.err
			}
			sg.post = append(sg.post, o.post...)
			sg.query = append(sg.query, o.query...)
			st.attempted += o.attempted
			st.failed += o.failed
			st.retries += o.retries
			accepted += o.accepted
		}
		// A barrier that times out only moves on; an observation that
		// never shows is caught as lost by the session's final count.
		got, _, err := c.waitVisible(*baseline+uint64(accepted), &sg.status)
		if err != nil {
			return nil, err
		}
		*baseline = got
		keep := 1 - readHostCPU().stealSince(host0)
		sg.rate = float64(accepted) / (time.Since(t0).Seconds() * keep)
		scale(sg.query, keep)
		scale(sg.status, keep)
		st.obs += accepted
		st.segs = append(st.segs, sg)
	}
	return st, nil
}

// scale multiplies every element of xs by f in place.
func scale(xs []float64, f float64) {
	for i := range xs {
		xs[i] *= f
	}
}

// pooled gathers the phase's rates and latencies.
func (st *loadStats) pooled() (rate, post, query, status []float64) {
	for _, sg := range st.segs {
		rate = append(rate, sg.rate)
		post = append(post, sg.post...)
		query = append(query, sg.query...)
		status = append(status, sg.status...)
	}
	return rate, post, query, status
}

// createTenants PUTs every tenant over the closed-loop connections.
func createTenants(c *client, tenants []*tenantLoad) error {
	errs := make([]error, loadConns)
	var wg sync.WaitGroup
	for w := 0; w < loadConns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for t := w; t < len(tenants); t += loadConns {
				code, body, _, err := c.do("PUT", "/v1/tenants/"+tenants[t].name, tenantSpec(tenants[t].s))
				if err == nil && code != http.StatusCreated {
					err = fmt.Errorf("create %s: %d %s", tenants[t].name, code, bytes.TrimSpace(body))
				}
				if err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func fleetLoads(cfg config, epochs int) []*tenantLoad {
	sh := fleetShape
	sh.epochs = epochs
	tenants := make([]*tenantLoad, fleetTenants)
	for t := range tenants {
		tenants[t] = &tenantLoad{name: fmt.Sprintf("t%04d", t), s: genStream(cfg.seed, t, sh)}
	}
	return tenants
}

// servePlan is one serve workload: its tenants, how a fresh daemon's
// state is prepared, and which epochs each session sends.
type servePlan struct {
	tenants   []*tenantLoad
	prepare   func(dir string) error // fills the snapshot dir before exec (untimed)
	create    bool                   // PUT every tenant as part of set-up
	first     int                    // first epoch sent (the checkpoint depth when restored)
	warm      int                    // untimed epochs per tenant before the timed ones
	timed     int                    // timed epochs per tenant per session
	segment   int                    // epochs per barrier
	queryStep int                    // reads every queryStep epochs; 0 = write-only
	// final runs against each session's live daemon after its stream.
	final func(c *client) error
}

// session is one daemon's life: set-up, warm-up, the timed phase, the
// read-back and the drain.
type session struct {
	setup  time.Duration
	st     *loadStats
	cpu    time.Duration
	rss    []float64
	hwm    float64
	drain  time.Duration
	checks []check
	fails  int64
	tries  int64
}

// runServe runs the plan on serveSessions fresh daemons one after the
// other, each over a fresh copy of its state and sending the same
// epochs, and pools the sessions into one outcome: set-up, resident set,
// drain and each latency quantile are medians over sessions (a session's
// p90 is the p90 of its own requests); throughput is the median over
// every session's barrier segments. Times are steal-corrected as
// loadSegment says. Spreading one run over several processes keeps
// per-process luck (heap layout, page backing) and a burst of host
// contention during one session out of the numbers.
func runServe(cfg config, p servePlan) (*outcome, error) {
	out := &outcome{}
	var setups, rss, hwms, drains, segRate []float64
	var postP50, postP90, queryP50, queryP90 []float64
	var cpu time.Duration
	var obs, retries int64
	for i := 0; i < serveSessions; i++ {
		s, err := runSession(cfg, p, i)
		if err != nil {
			return nil, err
		}
		setups = append(setups, s.setup.Seconds())
		rss = append(rss, median(s.rss))
		fmt.Printf("# info session %d: setup %.3f s, rss p50 %.1f p90 %.1f VmHWM %.1f MB, drain %.3f s\n",
			i, s.setup.Seconds(), quantile(s.rss, 0.5), quantile(s.rss, 0.9), s.hwm, s.drain.Seconds())
		hwms = append(hwms, s.hwm)
		drains = append(drains, s.drain.Seconds())
		rate, post, query, status := s.st.pooled()
		segRate = append(segRate, rate...)
		if p.queryStep == 0 {
			query = status
		}
		postP50 = append(postP50, quantile(post, 0.5))
		postP90 = append(postP90, quantile(post, 0.9))
		queryP50 = append(queryP50, quantile(query, 0.5))
		queryP90 = append(queryP90, quantile(query, 0.9))
		cpu += s.cpu
		obs += s.st.obs
		retries += s.st.retries
		out.attempted += s.tries
		out.failed += s.fails
		for _, c := range s.checks {
			c.Name = fmt.Sprintf("s%d.%s", i, c.Name)
			out.checks = append(out.checks, c)
		}
	}
	fmt.Printf("# info %d sessions: %d timed obs, drain median %.3f s, VmHWM median %.1f MB, 429 retries %d\n",
		serveSessions, obs, median(drains), median(hwms), retries)
	fmt.Printf("# info %d non-2xx answers (other than 429) of %d requests; %d 429s retried\n", out.failed, out.attempted, retries)
	out.set("setup_s", "s", median(setups))
	out.set("obs_per_s", "1/s", median(segRate))
	out.set("cpu_us_per_obs", "us", usOf(cpu)/float64(obs))
	out.set("rss_mb", "MB", median(rss))
	out.set("latency_p50_ms", "ms", median(postP50))
	out.set("query_p50_ms", "ms", median(queryP50))
	fmt.Printf("# info tails (not gated): latency p90 %.4f ms, query p90 %.4f ms\n", median(postP90), median(queryP90))
	return out, nil
}

func runSession(cfg config, p servePlan, i int) (*session, error) {
	s := &session{}
	for _, tl := range p.tenants {
		tl.accepted = 0
	}
	dir := filepath.Join(cfg.work, fmt.Sprintf("state-%d", i))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if err := p.prepare(dir); err != nil {
		return nil, err
	}
	host0, t0 := readHostCPU(), time.Now()
	d, err := startDaemon(cfg, dir)
	if err != nil {
		return nil, err
	}
	c := newClient(d.base, loadConns)
	defer c.close()
	if p.create {
		if err := createTenants(c, p.tenants); err != nil {
			d.kill()
			return nil, err
		}
	}
	s.setup = time.Duration(float64(time.Since(t0)) * (1 - readHostCPU().stealSince(host0)))
	if err := s.drive(d, c, p); err != nil {
		d.kill()
		return nil, err
	}
	if s.drain, err = d.drain(); err != nil {
		return nil, err
	}
	return s, os.RemoveAll(dir)
}

// drive sends the warm-up and the timed stream, reads every tenant back,
// and runs the plan's final reads, all against the live daemon.
func (s *session) drive(d *daemon, c *client, p servePlan) error {
	baseline, _, err := c.appends()
	if err != nil {
		return err
	}
	start := baseline
	warm, err := runLoad(c, p.tenants, p.first, p.first+p.warm, p.segment, p.queryStep, &baseline)
	if err != nil {
		return err
	}
	cpu0, err := procCPU(d.pid())
	if err != nil {
		return err
	}
	rss := sampleRSS(d.pid(), rssEvery)
	from := p.first + p.warm
	s.st, err = runLoad(c, p.tenants, from, from+p.timed, p.segment, p.queryStep, &baseline)
	s.rss = rss.finish()
	if err != nil {
		return err
	}
	cpu1, err := procCPU(d.pid())
	if err != nil {
		return err
	}
	s.cpu = cpu1 - cpu0
	s.tries = warm.attempted + s.st.attempted
	s.fails = warm.failed + s.st.failed
	s.st.retries += warm.retries

	// Read-back: every tenant's history must hold exactly what it
	// accepted, and the daemon-wide append count must equal the total.
	s.tries++
	code, body, _, err := c.do("GET", "/v1/tenants", nil)
	if err != nil {
		return err
	}
	var list struct {
		Tenants []struct {
			Name    string `json:"name"`
			History int    `json:"history"`
		} `json:"tenants"`
	}
	if code != http.StatusOK || json.Unmarshal(body, &list) != nil {
		return fmt.Errorf("GET /v1/tenants: %d", code)
	}
	history := make(map[string]int, len(list.Tenants))
	for _, t := range list.Tenants {
		history[t.Name] = t.History
	}
	var wrong, total int64
	for _, tl := range p.tenants {
		if h, ok := history[tl.name]; !ok || int64(h) != int64(p.first)+tl.accepted {
			wrong++
		}
		total += tl.accepted
	}
	s.gate("tenant-history", wrong == 0, wrong, "%d tenants hold the epochs they accepted; %d differ", len(p.tenants)-int(wrong), wrong)
	visible, _, err := c.appends()
	if err != nil {
		return err
	}
	lost := total - int64(visible-start)
	s.gate("appends-equal-accepted", lost == 0, lost, "/status appends %d = accepted %d, lost %d", visible-start, total, lost)
	if p.final != nil {
		if err := p.final(c); err != nil {
			return err
		}
	}
	if s.hwm, err = peakRSSMB(d.pid()); err != nil {
		return err
	}
	return nil
}

func (s *session) gate(name string, ok bool, failed int64, format string, args ...any) {
	s.checks = append(s.checks, newCheck(name, ok, failed, format, args...))
}

func runFleet(cfg config) (*outcome, error) {
	timed := timedEpochs(cfg.seconds, fleetTenants*serveSessions, fleetNominal)
	return runServe(cfg, servePlan{
		tenants: fleetLoads(cfg, fleetWarm+timed),
		prepare: func(string) error { return nil },
		create:  true, warm: fleetWarm, timed: timed, segment: fleetSegment,
	})
}

// deepState is the generated deep tenants plus the in-process monitors
// their checkpoints were built from; after the run the monitors are fed
// the same stream and become the oracle.
type deepState struct {
	tenants []*tenantLoad
	mons    []*core.Monitor
	base    string                 // checkpoint tree as the daemon expects it
	answers []map[string][2][]byte // per session: tenant → final /mode, /events
}

func buildDeep(cfg config, timed int) (*deepState, error) {
	sh := deepShape
	sh.epochs = deepDepth + deepWarm + timed
	ds := &deepState{base: filepath.Join(cfg.work, "checkpoints")}
	shard := filepath.Join(ds.base, "shard-0")
	if err := os.MkdirAll(shard, 0o755); err != nil {
		return nil, err
	}
	for t := 0; t < deepTenants; t++ {
		tl := &tenantLoad{name: fmt.Sprintf("deep%d", t), s: genStream(cfg.seed, t, sh)}
		mon := tenantMonitor(tl.s)
		space := mon.Space()
		for e := 0; e < deepDepth; e++ {
			if _, _, err := mon.Append(tl.s.vector(space, e)); err != nil {
				return nil, err
			}
		}
		if _, err := snapshot.SaveMonitor(filepath.Join(shard, tl.name+".fsnap"), mon.State()); err != nil {
			return nil, err
		}
		ds.tenants = append(ds.tenants, tl)
		ds.mons = append(ds.mons, mon)
	}
	return ds, nil
}

func runDeep(cfg config) (*outcome, error) {
	timed := timedEpochs(cfg.seconds, deepTenants*serveSessions, deepNominal)
	ds, err := buildDeep(cfg, timed)
	if err != nil {
		return nil, err
	}
	out, err := runServe(cfg, servePlan{
		tenants: ds.tenants,
		prepare: func(dir string) error { return copyDir(ds.base, dir) },
		first:   deepDepth, warm: deepWarm, timed: timed, segment: deepSegment, queryStep: deepQueryStep,
		final: ds.fetchAnswers,
	})
	if err != nil {
		return nil, err
	}
	bad, detail, err := ds.oracle(deepDepth + deepWarm + timed)
	if err != nil {
		return nil, err
	}
	out.gate("mode-events-vs-core", bad == 0, bad, "%s", detail)
	return out, nil
}

// fetchAnswers records each tenant's final /mode and full /events.
func (ds *deepState) fetchAnswers(c *client) error {
	got := map[string][2][]byte{}
	for _, tl := range ds.tenants {
		var pair [2][]byte
		for i, q := range []string{"/mode", "/events?n=0"} {
			code, body, _, err := c.do("GET", "/v1/tenants/"+tl.name+q, nil)
			if err != nil {
				return err
			}
			if code != http.StatusOK {
				return fmt.Errorf("final %s%s: %d", tl.name, q, code)
			}
			pair[i] = body
		}
		got[tl.name] = pair
	}
	ds.answers = append(ds.answers, got)
	return nil
}

// oracle feeds the in-process monitors the stream every session sent
// and compares each session's final answers with theirs, field by field.
func (ds *deepState) oracle(end int) (int64, string, error) {
	var bad int64
	detail := ""
	for t, tl := range ds.tenants {
		mon := ds.mons[t]
		space := mon.Space()
		for e := mon.Len(); e < end; e++ {
			if _, _, err := mon.Append(tl.s.vector(space, e)); err != nil {
				return 0, "", err
			}
		}
		mode, events := modeAnswer(mon), eventsAnswer(mon)
		for i, got := range ds.answers {
			if msg := sameFields(got[tl.name][0], mode); msg != "" {
				bad++
				detail += fmt.Sprintf(" s%d %s/mode: %s;", i, tl.name, msg)
			}
			if msg := sameFields(got[tl.name][1], events); msg != "" {
				bad++
				detail += fmt.Sprintf(" s%d %s/events: %s;", i, tl.name, msg)
			}
		}
	}
	if bad == 0 {
		detail = fmt.Sprintf("%d sessions x %d tenants: final /mode and /events equal an in-process monitor fed the same stream",
			len(ds.answers), len(ds.tenants))
	}
	return bad, detail, nil
}

// modeAnswer is what GET /mode answers for mon.
func modeAnswer(mon *core.Monitor) map[string]any {
	modes := mon.LiveModes()
	cur := modes.ModeOf(mon.Len() - 1)
	if cur == nil {
		return map[string]any{}
	}
	ranges := make([]map[string]int64, 0, len(cur.Ranges))
	for _, rg := range cur.Ranges {
		ranges = append(ranges, map[string]int64{"from": int64(rg.From), "to": int64(rg.To)})
	}
	return map[string]any{
		"mode_id": cur.ID, "epochs": len(cur.Epochs), "ranges": ranges,
		"phi_lo": cur.InternalLo, "phi_hi": cur.InternalHi,
		"threshold": modes.Threshold, "modes_total": len(modes.Modes),
	}
}

// eventsAnswer is what GET /events?n=0 answers for mon.
func eventsAnswer(mon *core.Monitor) map[string]any {
	events := core.DetectChanges(mon.Series(), mon.Weights(), mon.Detect())
	out := make([]map[string]any, 0, len(events))
	for _, ev := range events {
		out = append(out, map[string]any{
			"at": int64(ev.At), "phi": ev.Phi, "baseline": ev.Baseline, "magnitude": ev.Magnitude,
		})
	}
	return map[string]any{"events": out}
}

// sameFields compares every field of want with the daemon's JSON answer
// (fields the daemon adds beyond want are not compared). Floats survive
// the JSON round trip exactly, so equal encodings mean equal values.
func sameFields(daemonJSON []byte, want map[string]any) string {
	var got map[string]json.RawMessage
	if err := json.Unmarshal(daemonJSON, &got); err != nil {
		return err.Error()
	}
	for k, v := range want {
		w, _ := json.Marshal(v)
		g, ok := got[k]
		if !ok {
			return "missing " + k
		}
		var norm any
		if err := json.Unmarshal(g, &norm); err != nil {
			return err.Error()
		}
		gn, _ := json.Marshal(norm)
		var wn any
		json.Unmarshal(w, &wn) //nolint:errcheck // w was just marshalled
		wm, _ := json.Marshal(wn)
		if !bytes.Equal(gn, wm) {
			return fmt.Sprintf("%s differs", k)
		}
	}
	return ""
}
