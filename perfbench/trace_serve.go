package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"time"

	"fenrir/internal/core"
	"fenrir/internal/obs"
	"fenrir/internal/serve"
	"fenrir/internal/snapshot"
	"fenrir/internal/timeline"
)

// The traced serve runs replay a workload's generated inputs in-process,
// one public call per span:
//
//   - server A (serve.New, as the daemon configures it) is driven through
//     Handler().ServeHTTP with the same request bodies: tenant creation,
//     the handler's own time, and the lag from 202 until the tenant's
//     status shows the append;
//   - server B is the same server behind a loopback listener, driven by
//     an HTTP client: the round trip a producer sees, and the reads;
//   - the bodies are decoded alone (json.Unmarshal into serve.Observation
//     plus Space.NetworkIndex/Vector.Set);
//   - in-process core monitors replay Monitor.Append and the query calls
//     behind /mode, /events and /heatmap;
//   - every final tenant state is encoded and restored through snapshot.
const (
	traceFleetEpochs = 16 // per tenant
	traceDeepEpochs  = 64
	lagEvery         = 16 // sample the visible lag every 16th observation
)

func traceFleet(cfg config) (*outcome, error) {
	tenants := fleetLoads(cfg, traceFleetEpochs)
	mons := make([]*core.Monitor, len(tenants))
	for t, tl := range tenants {
		mons[t] = tenantMonitor(tl.s)
	}
	return traceServe(cfg, tenants, mons, "", 0, traceFleetEpochs, 0)
}

func traceDeep(cfg config) (*outcome, error) {
	ds, err := buildDeep(cfg, traceDeepEpochs)
	if err != nil {
		return nil, err
	}
	return traceServe(cfg, ds.tenants, ds.mons, ds.base, deepDepth, traceDeepEpochs, deepQueryStep)
}

// newTracedServer builds a server the way `fenrir -serve` does by
// default: a registry with the request trace on, history sampling every
// 10s, checkpoints into dir.
func newTracedServer(dir string) (*serve.Server, error) {
	reg := obs.NewRegistry()
	reg.BeginTrace("serve")
	return serve.New(serve.Config{SnapshotDir: dir, Obs: reg, HistoryEvery: 10 * time.Second})
}

// local sends one request straight into a handler.
func local(h http.Handler, method, path string, body []byte) (int, []byte) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
	return rec.Code, rec.Body.Bytes()
}

// tenantAppends reads one tenant's append count through the handler.
func tenantAppends(h http.Handler, name string) uint64 {
	_, body := local(h, "GET", "/v1/tenants/"+name, nil)
	var st struct {
		Appends uint64 `json:"appends"`
	}
	json.Unmarshal(body, &st) //nolint:errcheck // a bad body reads as 0 and keeps the caller polling
	return st.Appends
}

// waitAppends polls until the tenant shows want appends.
func waitAppends(h http.Handler, name string, want uint64) bool {
	deadline := time.Now().Add(30 * time.Second)
	for tenantAppends(h, name) < want {
		if time.Now().After(deadline) {
			return false
		}
		runtime.Gosched()
	}
	return true
}

// gcCPU reads the runtime's cumulative GC and total CPU seconds.
func gcCPU() (gc, total float64) {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 || s[1].Value.Kind() != metrics.KindFloat64 {
		return 0, 0
	}
	return s[0].Value.Float64(), s[1].Value.Float64()
}

func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// traceServe is the traced replay shared by both serve workloads. With
// ckpt set the tenants are warm-restored from that checkpoint tree;
// otherwise they are created with PUT. Epochs [first, first+epochs) of
// every tenant are replayed, with the three reads every queryStep
// epochs when queryStep > 0.
func traceServe(cfg config, tenants []*tenantLoad, mons []*core.Monitor, ckpt string, first, epochs, queryStep int) (*outcome, error) {
	out := &outcome{}
	layers := map[string]metric{}
	bodies := make([][][]byte, len(tenants))
	for t, tl := range tenants {
		for e := first; e < first+epochs; e++ {
			bodies[t] = append(bodies[t], tl.s.body(e))
		}
	}
	prepare := func(dir string) error {
		if ckpt != "" {
			return copyDir(ckpt, dir)
		}
		return os.MkdirAll(dir, 0o755)
	}
	nobs := int64(len(tenants) * epochs)
	var posts, rejected, failed int64
	tally := func(code int) {
		posts++
		switch {
		case code == http.StatusTooManyRequests:
			rejected++
		case code != http.StatusAccepted:
			failed++
		}
	}

	tr := newTracer()
	root := tr.start("trace:"+cfg.workload, 0, -1)

	// Server A, in-process.
	dirA := filepath.Join(cfg.work, "trace-a")
	if err := prepare(dirA); err != nil {
		return nil, err
	}
	var heap0 uint64
	tr.call("runtime.GC", 0, root, func() { heap0 = liveHeap() })
	g0 := runtime.NumGoroutine()
	var a *serve.Server
	var err error
	tr.call("serve.New", 0, root, func() { a, err = newTracedServer(dirA) })
	if err != nil {
		return nil, err
	}
	h := a.Handler()
	var creates []time.Duration
	if ckpt == "" {
		for t, tl := range tenants {
			var code int
			creates = append(creates, tr.call("serve.create", int64(t), root, func() {
				code, _ = local(h, "PUT", "/v1/tenants/"+tl.name, tenantSpec(tl.s))
			}))
			if code != http.StatusCreated {
				failed++
			}
		}
	}
	want := make([]uint64, len(tenants))
	for t, tl := range tenants {
		want[t] = tenantAppends(h, tl.name)
	}
	gcA0, cpuA0 := gcCPU()
	// Every span of one observation carries the same id, whichever
	// replay it comes from.
	obsID := func(t, e int) int64 { return int64(e*len(tenants) + t + 1) }
	var handler, lag []time.Duration
	for e := 0; e < epochs; e++ {
		for t, tl := range tenants {
			id := obsID(t, e)
			path := "/v1/tenants/" + tl.name + "/observations"
			var code int
			for {
				handler = append(handler, tr.call("serve.Handler.ServeHTTP", id, root, func() { code, _ = local(h, "POST", path, bodies[t][e]) }))
				tally(code)
				if code != http.StatusTooManyRequests {
					break
				}
				time.Sleep(time.Millisecond)
			}
			if code == http.StatusAccepted {
				want[t]++
			}
			if id%lagEvery == 0 {
				ok := true
				lag = append(lag, tr.call("serve.visible_lag", id, root, func() { ok = waitAppends(h, tl.name, want[t]) }))
				if !ok {
					failed++
				}
			}
		}
	}
	tr.call("serve.flush", 0, root, func() {
		for t, tl := range tenants {
			if !waitAppends(h, tl.name, want[t]) {
				failed++
			}
		}
	})
	gcA1, cpuA1 := gcCPU()
	var heapA uint64
	tr.call("runtime.GC", 0, root, func() { heapA = liveHeap() })
	gA := runtime.NumGoroutine()
	drain := tr.call("serve.Server.Drain", 0, root, func() { err = a.Drain() })
	if err != nil {
		return nil, fmt.Errorf("drain: %w", err)
	}

	// Server B, behind a loopback listener.
	dirB := filepath.Join(cfg.work, "trace-b")
	if err := prepare(dirB); err != nil {
		return nil, err
	}
	b, err := newTracedServer(dirB)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	hs := &http.Server{Handler: b.Handler()}
	served := make(chan struct{})
	go func() {
		hs.Serve(ln) //nolint:errcheck // ends with ErrServerClosed at Shutdown
		close(served)
	}()
	c := newClient("http://"+ln.Addr().String(), 1)
	stopB := func() {
		c.close()
		hs.Shutdown(context.Background()) //nolint:errcheck // idle connections only by now
		<-served
	}
	if ckpt == "" {
		for t, tl := range tenants {
			var code int
			tr.call("http.create", int64(t), root, func() { code, _, _, err = c.do("PUT", "/v1/tenants/"+tl.name, tenantSpec(tl.s)) })
			if err != nil || code != http.StatusCreated {
				stopB()
				return nil, fmt.Errorf("create over loopback: %d %v", code, err)
			}
		}
	}
	base, _, err := c.appends()
	if err != nil {
		stopB()
		return nil, err
	}
	var roundtrip []time.Duration
	var accepted uint64
	bStart := time.Now()
	for e := 0; e < epochs; e++ {
		for t, tl := range tenants {
			id := obsID(t, e)
			path := "/v1/tenants/" + tl.name
			var code int
			for {
				var d time.Duration
				tr.call("http.roundtrip", id, root, func() { code, _, d, err = c.do("POST", path+"/observations", bodies[t][e]) })
				if err != nil {
					stopB()
					return nil, err
				}
				roundtrip = append(roundtrip, d)
				tally(code)
				if code != http.StatusTooManyRequests {
					break
				}
				time.Sleep(time.Millisecond)
			}
			if code == http.StatusAccepted {
				accepted++
			}
			if queryStep > 0 && (first+e)%queryStep == 0 {
				// Read-your-write, as in the untimed load (see runLoad).
				if err := c.waitHistory(path, first+e+1); err != nil {
					stopB()
					return nil, err
				}
				for _, q := range []string{"/mode", "/events", "/heatmap"} {
					var qc int
					tr.call("http.query", id, root, func() { qc, _, _, err = c.do("GET", path+q, nil) })
					if err != nil || qc != http.StatusOK {
						failed++
					}
				}
			}
		}
	}
	tr.call("http.flush", 0, root, func() {
		var polls []float64
		if _, ok, err := c.waitVisible(base+accepted, &polls); err != nil || !ok {
			failed++
		}
	})
	bWall := time.Since(bStart)
	answers := make([][2][]byte, len(tenants))
	for t, tl := range tenants {
		for i, q := range []string{"/mode", "/events?n=0"} {
			var body []byte
			tr.call("http.readback", int64(t), root, func() { _, body, _, err = c.do("GET", "/v1/tenants/"+tl.name+q, nil) })
			if err != nil {
				stopB()
				return nil, err
			}
			answers[t][i] = body
		}
	}
	stopB()
	if err := b.Drain(); err != nil {
		return nil, fmt.Errorf("drain: %w", err)
	}

	// Decode alone.
	var decode []time.Duration
	for t, tl := range tenants {
		space := core.NewSpace(tl.s.networks)
		for e := 0; e < epochs; e++ {
			var derr error
			decode = append(decode, tr.call("serve.decode", obsID(t, e), root, func() { derr = decodeObservation(space, bodies[t][e]) }))
			if derr != nil {
				failed++
			}
		}
	}

	// Core monitors: appends, and the reads' calls at the same epochs.
	var appends, live, events, matrix []time.Duration
	for e := first; e < first+epochs; e++ {
		for t, tl := range tenants {
			mon := mons[t]
			v := tl.s.vector(mon.Space(), e)
			var aerr error
			appends = append(appends, tr.call("core.Monitor.Append", obsID(t, e-first), root, func() { _, _, aerr = mon.Append(v) }))
			if aerr != nil {
				return nil, aerr
			}
			if queryStep > 0 && e%queryStep == 0 {
				live = append(live, tr.call("core.Monitor.LiveModes", obsID(t, e-first), root, func() { mon.LiveModes() }))
				events = append(events, tr.call("core.DetectChanges", obsID(t, e-first), root, func() {
					core.DetectChanges(mon.Series(), mon.Weights(), mon.Detect())
				}))
				matrix = append(matrix, tr.call("core.Monitor.Matrix", obsID(t, e-first), root, func() { mon.Matrix() }))
			}
		}
	}
	var wrong int64
	for t := range tenants {
		if sameFields(answers[t][0], modeAnswer(mons[t])) != "" || sameFields(answers[t][1], eventsAnswer(mons[t])) != "" {
			wrong++
		}
	}

	// Snapshots of every final tenant state.
	snapDir := filepath.Join(cfg.work, "trace-snap")
	if err := os.MkdirAll(snapDir, 0o755); err != nil {
		return nil, err
	}
	var encode, restore []time.Duration
	var sizes []float64
	for t, mon := range mons {
		var buf bytes.Buffer
		var eerr error
		encode = append(encode, tr.call("snapshot.EncodeMonitor", int64(t), root, func() { eerr = snapshot.EncodeMonitor(&buf, mon.State()) }))
		if eerr != nil {
			return nil, eerr
		}
		sizes = append(sizes, float64(buf.Len())/1024)
		path := filepath.Join(snapDir, fmt.Sprintf("%d.fsnap", t))
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			return nil, err
		}
		var lerr error
		restore = append(restore, tr.call("snapshot.LoadMonitor", int64(t), root, func() { _, lerr = snapshot.LoadMonitor(path) }))
		if lerr != nil {
			return nil, lerr
		}
	}
	tr.end(root)

	hand, rt := medianDur(handler), medianDur(roundtrip)
	layers["http.roundtrip_us"] = metric{usOf(rt), "us"}
	layers["serve.handler_us"] = metric{usOf(hand), "us"}
	layers["http.overhead_us"] = metric{usOf(rt - hand), "us"}
	layers["serve.decode_us"] = metric{usOf(medianDur(decode)), "us"}
	layers["serve.visible_lag_us"] = metric{usOf(medianDur(lag)), "us"}
	layers["serve.backpressure_share"] = metric{float64(rejected) / float64(max(posts, 1)), "ratio"}
	layers["serve.heap_kb_per_tenant"] = metric{float64(int64(heapA)-int64(heap0)) / 1024 / float64(len(tenants)), "KB"}
	layers["serve.goroutines_per_tenant"] = metric{float64(gA-g0) / float64(len(tenants)), "count"}
	if cpuA1 > cpuA0 {
		layers["serve.gc_cpu_share"] = metric{(gcA1 - gcA0) / (cpuA1 - cpuA0), "ratio"}
	}
	if len(creates) > 0 {
		layers["serve.create_ms"] = metric{msOf(medianDur(creates)), "ms"}
	}
	layers["serve.drain_ms"] = metric{msOf(drain), "ms"}
	layers["core.append_us"] = metric{usOf(medianDur(appends)), "us"}
	if queryStep > 0 {
		layers["core.live_modes_us"] = metric{usOf(medianDur(live)), "us"}
		layers["core.events_us"] = metric{usOf(medianDur(events)), "us"}
		layers["core.matrix_us"] = metric{usOf(medianDur(matrix)), "us"}
	}
	layers["snapshot.encode_ms"] = metric{msOf(medianDur(encode)), "ms"}
	layers["snapshot.checkpoint_kb"] = metric{median(sizes), "KB"}
	layers["snapshot.restore_ms"] = metric{msOf(medianDur(restore)), "ms"}
	layers["trace.obs_per_s"] = metric{float64(nobs) / bWall.Seconds(), "1/s"}
	for _, line := range tr.summary(root, int(nobs), layers) {
		fmt.Println("# " + line)
	}
	if err := tr.write(cfg.spansPath()); err != nil {
		return nil, err
	}
	out.attempted = posts
	out.failed = failed
	for name, m := range layers {
		out.set(name, m.Unit, m.Value)
	}
	fillLayers(out)
	fmt.Printf("# info %d failed of %d POSTs (plus reads); %d 429s retried\n", failed, posts, rejected)
	out.gate("traced-answers-vs-core", wrong == 0, wrong, "%d of %d tenants: loopback /mode and /events differ from the in-process monitors", wrong, len(tenants))
	return out, nil
}

// decodeObservation is the ingest handler's decode step: the JSON body
// into serve.Observation, then each network name to its index and the
// site into the vector.
func decodeObservation(space *core.Space, body []byte) error {
	var ob serve.Observation
	if err := json.Unmarshal(body, &ob); err != nil {
		return err
	}
	v := space.NewVector(timeline.Epoch(ob.Epoch))
	for net, site := range ob.Sites {
		n := space.NetworkIndex(net)
		if n < 0 {
			return fmt.Errorf("unknown network %q", net)
		}
		v.Set(n, site)
	}
	return nil
}
