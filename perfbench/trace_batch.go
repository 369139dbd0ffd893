package main

import (
	"fmt"
	"os"
	"time"

	"fenrir"
	"fenrir/internal/astopo"
	"fenrir/internal/bgpsim"
	"fenrir/internal/clean"
	"fenrir/internal/core"
	"fenrir/internal/dataplane"
	"fenrir/internal/measure/atlas"
	"fenrir/internal/netaddr"
	"fenrir/internal/report"
	"fenrir/internal/scenario"
	"fenrir/internal/timeline"
	"fenrir/internal/wire"
)

// traceArchiveWorker replays the analyze-archive pipeline one public
// call at a time — the same calls, in the same order and with the same
// options, that Analyze makes — and checks the replay reaches the same
// answer as Analyze itself.
func traceArchiveWorker(path, spansPath string, iters int) (*workerReport, error) {
	s, err := loadArchive(path)
	if err != nil {
		return nil, err
	}
	ref := digestOf(fenrir.Analyze(s, fenrir.DefaultAnalysisOptions()))
	st, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	root := tr.start("archive", 0, -1)
	var load, interp, cov, sim, clu, det, rend, pipe []time.Duration
	var coverage float64
	var pairs, events int
	var bad int64
	for i := 0; i < iters; i++ {
		it := tr.start("iteration", int64(i), root)
		var series *fenrir.Series
		var lerr error
		load = append(load, tr.call("dataset.Load", int64(i), it, func() { series, lerr = loadArchive(path) }))
		if lerr != nil {
			return nil, lerr
		}
		opts := fenrir.DefaultAnalysisOptions()
		a := &fenrir.Analysis{}
		interp = append(interp, tr.call("clean.Interpolate", int64(i), it, func() {
			series = clean.Interpolate(series, clean.InterpolateOptions{MaxReach: opts.InterpolateReach})
		}))
		a.Series = series
		cov = append(cov, tr.call("clean.Coverage", int64(i), it, func() { coverage = clean.Coverage(series) }))
		sim = append(sim, tr.call("core.SimilarityMatrixParallel", int64(i), it, func() {
			a.Matrix = core.SimilarityMatrixParallel(series, opts.Weights, opts.Unknowns,
				core.MatrixOptions{Kernel: opts.Kernel, Parallelism: opts.Parallelism})
		}))
		clu = append(clu, tr.call("core.DiscoverModes", int64(i), it, func() { a.Modes = core.DiscoverModes(a.Matrix, opts.Clustering) }))
		det = append(det, tr.call("core.DetectChanges", int64(i), it, func() {
			a.Changes = core.DetectChanges(series, opts.Weights, opts.Detection)
		}))
		rend = append(rend, tr.call("report.ModesSummary+Heatmap", int64(i), it, func() {
			report.ModesSummary(a.Modes)
			report.Heatmap(a.Matrix, 60)
		}))
		tr.end(it)
		pipe = append(pipe, interp[i]+cov[i]+sim[i]+clu[i]+det[i]+rend[i])
		pairs, events = a.Matrix.N*(a.Matrix.N-1)/2, len(a.Changes)
		if digestOf(a) != ref {
			bad++
		}
	}
	tr.end(root)
	layers := map[string]metric{
		"dataset.load_ms":             {msOf(medianDur(load)), "ms"},
		"dataset.mb":                  {float64(st.Size()) / (1 << 20), "MB"},
		"clean.interpolate_ms":        {msOf(medianDur(interp)), "ms"},
		"clean.coverage":              {coverage, "ratio"},
		"core.similarity_ms":          {msOf(medianDur(sim)), "ms"},
		"core.similarity_pairs_per_s": {float64(pairs) / medianDur(sim).Seconds(), "1/s"},
		"core.cluster_ms":             {msOf(medianDur(clu)), "ms"},
		"core.detect_ms":              {msOf(medianDur(det)), "ms"},
		"core.events_detected":        {float64(events), "count"},
		"report.render_ms":            {msOf(medianDur(rend)), "ms"},
		"trace.obs_per_s":             {float64(s.Len()) / medianDur(pipe).Seconds(), "1/s"},
	}
	rep := &workerReport{Epochs: s.Len(), Attempts: int64(iters), Layers: layers}
	rep.Table = tr.summary(root, iters*s.Len(), layers)
	rep.Checks = []check{{Name: "traced-archive-digest", OK: bad == 0, Failed: bad,
		Detail: fmt.Sprintf("call-by-call replay vs Analyze: %d mismatches in %d iterations", bad, iters)}}
	return rep, tr.write(spansPath)
}

// traceScenarioWorker runs RunValidation with its stage spans on (the
// spans the scenario already emits through ValidationConfig.Obs) and
// then drives the substrate layers the scenario is built from — world
// generation, BGP route computation, Atlas rounds, DNS queries through
// the dataplane — with the validation scenario's own settings.
func traceScenarioWorker(seed uint64, spansPath string, iters int) (*workerReport, error) {
	ref, err := fenrir.RunValidation(fenrir.DefaultValidationConfig(seed))
	if err != nil {
		return nil, err
	}
	want := table4Of(ref)
	tr := newTracer()
	root := tr.start("scenario", 0, -1)
	stages := map[string][]time.Duration{}
	var runs []time.Duration
	var bad int64
	for i := 0; i < iters; i++ {
		cfg := fenrir.DefaultValidationConfig(seed)
		cfg.Obs = fenrir.NewRegistry()
		var res *fenrir.ValidationResult
		it := tr.start("scenario.RunValidation", int64(i), root)
		res, err = fenrir.RunValidation(cfg)
		d := tr.end(it)
		if err != nil {
			return nil, err
		}
		runs = append(runs, d)
		if table4Of(res) != want {
			bad++
		}
		at := tr.spans[it].StartNS
		for _, st := range cfg.Obs.StageSummary() {
			sd := time.Duration(st.Seconds * 1e9)
			tr.add("stage."+st.Name, int64(i), it, at, sd)
			at += int64(sd)
			stages[st.Name] = append(stages[st.Name], sd)
		}
	}
	epochs := fenrir.DefaultValidationConfig(seed).Epochs
	pairs := epochs * (epochs - 1) / 2
	layers := map[string]metric{
		"core.similarity_ms":          {msOf(medianDur(stages["similarity"])), "ms"},
		"core.similarity_pairs_per_s": {float64(pairs) / medianDur(stages["similarity"]).Seconds(), "1/s"},
		"core.cluster_ms":             {msOf(medianDur(stages["cluster"])), "ms"},
		"core.detect_ms":              {msOf(medianDur(stages["detect"])), "ms"},
		"core.events_detected":        {float64(len(ref.Detections)), "count"},
		"trace.obs_per_s":             {float64(epochs) / medianDur(runs).Seconds(), "1/s"},
	}
	if err := traceSubstrate(tr, root, seed, layers); err != nil {
		return nil, err
	}
	tr.end(root)
	rep := &workerReport{Epochs: epochs, Attempts: int64(iters), Layers: layers}
	rep.Table = tr.summary(root, iters*epochs, layers)
	rep.Checks = []check{{Name: "traced-table4", OK: bad == 0, Failed: bad,
		Detail: fmt.Sprintf("traced RunValidation vs untraced: %d mismatches in %d runs", bad, iters)}}
	return rep, tr.write(spansPath)
}

// substrateEpochs is how many Atlas rounds the substrate replay times.
const substrateEpochs = 200

// traceSubstrate builds the validation scenario's world (same generator
// and dataplane settings as RunValidation) and times the substrate
// calls one by one.
func traceSubstrate(tr *tracer, root int, seed uint64, layers map[string]metric) error {
	cfg := fenrir.DefaultValidationConfig(seed)
	gen := astopo.DefaultGenConfig(seed)
	gen.StubsPerRegion = cfg.StubsPerRegion
	dp := dataplane.DefaultConfig(seed ^ 0x7ab1e4)
	dp.LossRate = 0.002
	var w *scenario.World
	worldT := tr.call("scenario.NewWorld", 0, root, func() { w = scenario.NewWorld(gen, dp) })

	na, eu, as := w.Tier2sInRegion("NA"), w.Tier2sInRegion("EU"), w.Tier2sInRegion("AS")
	svc := bgpsim.NewService("b-root", netaddr.MustParsePrefix("199.9.14.0/24"))
	svc.AddSite("LAX", na[0])
	svc.AddSite("IAD", na[1])
	svc.AddSite("AMS", eu[0])
	svc.AddSite("SIN", as[0])
	w.Net.AddService(svc, siteHandler)
	vps := atlas.DeployVPs(w.Net, cfg.VPs, seed^0x7a5)
	mesh := &atlas.Mesh{Net: w.Net, Service: "b-root", VPs: vps}
	space := mesh.Space()

	// One routing change per drained site, then its undo: bgpsim.Compute
	// over the service's announcements, as every Refresh does.
	var computes []time.Duration
	for k, site := range svc.SiteNames() {
		for _, drained := range []bool{true, false} {
			if drained {
				svc.Drain(site)
			} else {
				svc.Enable(site)
			}
			var cerr error
			computes = append(computes, tr.call("bgpsim.Compute", int64(k), root, func() {
				_, cerr = bgpsim.Compute(w.G, svc.Announcements(), w.Pol)
			}))
			if cerr != nil {
				return cerr
			}
		}
	}
	w.Net.Refresh()

	var rounds []time.Duration
	known, cells := 0, 0 // cells answered with a real site, of all VP queries
	for e := 0; e < substrateEpochs; e++ {
		var v *core.Vector
		rounds = append(rounds, tr.call("atlas.Mesh.Round", int64(e), root, func() { v, _ = mesh.Round(space, timeline.Epoch(e)) }))
		for n := 0; n < space.NumNetworks(); n++ {
			if site, ok := v.Site(n); ok && site != core.SiteError && site != core.SiteOther {
				known++
			}
		}
		cells += space.NumNetworks()
	}
	// Direct DNS queries, one per VP for a few epochs past the rounds.
	server := w.Net.ServiceAddr("b-root")
	var queries []time.Duration
	for e := substrateEpochs; e < substrateEpochs+8; e++ {
		for i, vp := range vps {
			q := &wire.DNSMessage{
				ID:         uint16(e) ^ uint16(i),
				Questions:  []wire.Question{{Name: "hostname.bind", Type: wire.TypeTXT, Class: wire.ClassCHAOS}},
				Additional: []wire.RR{wire.OPTRecord(4096, wire.NSIDOption(""))},
			}
			queries = append(queries, tr.call("dataplane.Net.QueryDNS", int64(i), root, func() {
				w.Net.QueryDNS(vp.AS, server, q, e) //nolint:errcheck // a lost query is part of the measured mix
			}))
		}
	}
	layers["astopo.world_ms"] = metric{msOf(worldT), "ms"}
	layers["bgpsim.compute_ms"] = metric{msOf(medianDur(computes)), "ms"}
	layers["atlas.round_ms"] = metric{msOf(medianDur(rounds)), "ms"}
	layers["dataplane.query_us"] = metric{usOf(medianDur(queries)), "us"}
	layers["atlas.known_share"] = metric{float64(known) / float64(cells), "ratio"}
	return nil
}

// siteHandler answers hostname.bind the way the validation scenario's
// root service does: "b1-<site>" in the TXT answer and the NSID option.
func siteHandler(q *wire.DNSMessage, site string, _ astopo.ASN) *wire.DNSMessage {
	resp := &wire.DNSMessage{ID: q.ID, QR: true, AA: true, Questions: q.Questions}
	id := "b1-" + lowerASCII(site)
	if rr, err := wire.TXTRecord("hostname.bind", wire.ClassCHAOS, 0, id); err == nil {
		resp.Answers = []wire.RR{rr}
	}
	resp.Additional = []wire.RR{wire.OPTRecord(4096, wire.NSIDOption(id))}
	return resp
}

func lowerASCII(s string) string {
	b := []byte(s)
	for i, c := range b {
		if c >= 'A' && c <= 'Z' {
			b[i] = c + 32
		}
	}
	return string(b)
}
