// Package serve is Fenrir's long-running daemon layer: named Monitor
// tenants behind an HTTP API, so operators stream observations in as
// they are collected and read the live analysis back out — current
// routing mode, change events, Φ heatmap rows, transition matrices —
// without re-running a batch job every four minutes.
//
// The daemon is built for unattended operation. Ingest queues are
// bounded and reject with 429 + Retry-After instead of buffering
// without limit; malformed or out-of-order observations degrade into
// 400s backed by the core package's typed errors; observations pass
// through the fault-injection seam so `-faults` profiles exercise the
// serving path like every other substrate; and tenants checkpoint to
// internal/snapshot files so a restarted daemon answers queries
// byte-identically to one that never stopped.
//
// One tenant map, owned by the Server, holds every monitor: tenants
// are independent, so nothing partitions them, and the daemon's
// measured ingest cost showed no gain from doing so (DESIGN.md §8).
package serve

import (
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"fenrir/internal/core"
	"fenrir/internal/faults"
	"fenrir/internal/obs"
	"fenrir/internal/obs/history"
	"fenrir/internal/snapshot"
)

// Config tunes a Server. The zero value serves from memory only: no
// checkpoints, default queue depth, no instrumentation, no faults.
type Config struct {
	// SnapshotDir is where tenant checkpoints live ("" disables
	// checkpointing), as <dir>/shard-0/<name>.fsnap (see snapSubdir). On
	// startup every checkpoint there is restored as a tenant, which is
	// how a warm restart resumes exactly where the previous process
	// stopped; a *.fsnap anywhere else under <dir> makes New fail.
	SnapshotDir string
	// SnapshotEvery checkpoints a tenant after this many accepted
	// observations (<= 0 means every 64). Tenants also checkpoint on
	// drain and on explicit POST …/checkpoint.
	SnapshotEvery int
	// QueueDepth bounds each tenant's ingest queue (<= 0 means 256).
	// A full queue rejects with 429 rather than stalling the producer.
	QueueDepth int
	// DefaultWindow is the sliding-window bound applied to tenants whose
	// spec does not set one (0 = unbounded), and to restored tenants
	// whose checkpoint carries no window of its own — so an unbounded
	// snapshot restarted under -window is bounded exactly like an
	// identical freshly created tenant. A windowed tenant retains only
	// its newest Window observations; see core.MonitorOptions.
	DefaultWindow int
	// Obs receives serve metrics; nil disables instrumentation.
	Obs *obs.Registry
	// Faults, when non-nil, mangles ingest the way it mangles every
	// other substrate: request bodies pass through Datagram (loss,
	// corruption, duplication) and site labels through SiteLabel.
	Faults *faults.Injector
	// HistoryEvery enables the telemetry history sampler (DESIGN.md §15):
	// every interval the daemon scrapes its own registry into ring
	// buffers served at /v1/query and /debug/timeline, and evaluates the
	// alert rules. <= 0 disables history entirely (the zero Config stays
	// inert); `fenrir -serve` defaults the flag to 10s.
	HistoryEvery time.Duration
	// HistoryRetain bounds each history series to this many samples
	// (<= 0 means history.DefaultRetain).
	HistoryRetain int
	// AlertRules are evaluated after every history sample, in addition
	// to DefaultAlertRules. Ignored unless HistoryEvery > 0.
	AlertRules []history.Rule
	// SeriesCap caps per-metric-family tenant label cardinality in the
	// registry: past the cap, new tenant-labeled series collapse into
	// {tenant="__other__"} and fenrir_obs_dropped_series_total counts the
	// overflow. The daemon-wide unlabeled series are never governed, so
	// fleet-level SLOs stay exact at any tenant count. <= 0 disables.
	SeriesCap int
}

func (c Config) queueDepth() int {
	if c.QueueDepth <= 0 {
		return 256
	}
	return c.QueueDepth
}

func (c Config) snapshotEvery() int {
	if c.SnapshotEvery <= 0 {
		return 64
	}
	return c.SnapshotEvery
}

// snapSubdir is the one directory under Config.SnapshotDir that holds
// tenant checkpoints. The name is historical — earlier daemons spread
// tenants over shard-<k>/ subdirectories and the default one used
// shard-0/ — and is kept so every existing default daemon's state, and
// checkpoint trees built for it by other tools, restore unchanged.
const snapSubdir = "shard-0"

// Sentinel errors insert returns; the API layer maps them to 503 and 409.
var (
	errDraining = errors.New("serve: server is draining")
	errExists   = errors.New("serve: tenant already exists")
)

// Server hosts named monitor tenants. Create with New, mount Handler on
// an http.Server, and call Drain before exit.
type Server struct {
	cfg Config
	mux *http.ServeMux

	// mu guards tenants and orders creates against Drain: draining is
	// set under mu, and insert re-checks it under mu (see insert).
	// Handlers also read draining without mu for an early 503.
	mu       sync.Mutex
	tenants  map[string]*tenant
	draining atomic.Bool

	// pending is the admitted-but-not-yet-appended backlog across all
	// tenants, mirrored into pendingGauge; drainNanos is the wall time of
	// the last Drain (0 until one runs). /status reports both.
	pending      atomic.Int64
	drainNanos   atomic.Int64
	pendingGauge *obs.Gauge
	drainGauge   *obs.Gauge
	// admitHist is the daemon-wide admission latency. It carries no
	// tenant label, so the cardinality governor never collapses it and
	// the fleet-level SLO stays exact at any tenant count.
	admitHist *obs.Histogram

	// hist is the telemetry history store (nil unless HistoryEvery > 0);
	// its sampler goroutine starts in New and stops in Drain.
	hist *history.Store
}

// New builds a server and, when cfg.SnapshotDir is set, warm-restarts
// every tenant checkpointed there.
func New(cfg Config) (*Server, error) {
	reg := cfg.Obs
	s := &Server{
		cfg:          cfg,
		tenants:      make(map[string]*tenant),
		pendingGauge: reg.Gauge("fenrir_serve_pending"),
		drainGauge:   reg.Gauge("fenrir_serve_drain_seconds"),
		admitHist:    reg.Histogram("fenrir_serve_admission_seconds"),
	}
	// The governor must be in place before any tenant-labeled series is
	// resolved (restore creates per-tenant instruments), so overflow
	// tenants collapse into __other__ from the very first registration.
	reg.SetSeriesCap(cfg.SeriesCap)
	if cfg.HistoryEvery > 0 {
		s.hist = history.New(reg, history.Config{
			Every:  cfg.HistoryEvery,
			Retain: cfg.HistoryRetain,
			Rules:  append(DefaultAlertRules(), cfg.AlertRules...),
		})
	}
	if cfg.SnapshotDir != "" {
		if err := os.MkdirAll(s.dir(), 0o755); err != nil {
			return nil, fmt.Errorf("serve: snapshot dir: %w", err)
		}
		if err := s.restoreAll(); err != nil {
			return nil, err
		}
	}
	s.mux = s.buildMux()
	s.setTenantGauge()
	s.hist.Start()
	return s, nil
}

// History returns the telemetry history store, or nil when the daemon
// runs without sampling (HistoryEvery <= 0).
func (s *Server) History() *history.Store { return s.hist }

// DefaultAlertRules are the rules every history-enabled daemon carries:
// an ingest-availability SLO burn-rate rule over the request/reject
// counters, and a threshold rule that fires while snapshot writes are
// failing. Rules passed via Config.AlertRules (the -alert-rules file)
// are evaluated in addition to these.
func DefaultAlertRules() []history.Rule {
	return []history.Rule{
		{
			Name:        "serve-ingest-availability",
			Type:        history.TypeBurnRate,
			ErrorMetric: "fenrir_serve_ingest_rejected_total",
			TotalMetric: "fenrir_serve_ingest_requests_total",
			Objective:   0.99,
			Factor:      2,
			FastRange:   history.Duration(5 * time.Minute),
			SlowRange:   history.Duration(30 * time.Minute),
		},
		{
			Name:   "serve-snapshot-errors",
			Type:   history.TypeThreshold,
			Metric: "fenrir_snapshot_errors_total",
			Fn:     "delta",
			Op:     ">",
			Value:  0,
			Range:  history.Duration(10 * time.Minute),
		},
	}
}

// dir is the checkpoint directory: <SnapshotDir>/shard-0.
func (s *Server) dir() string {
	return filepath.Join(s.cfg.SnapshotDir, snapSubdir)
}

// restoreAll loads every checkpoint in the checkpoint directory. It
// first refuses any *.fsnap elsewhere under SnapshotDir — directly in
// it, or in another shard-<k>/ — because those were written by a daemon
// that spread tenants over several directories, and restoring only
// shard-0/ would silently drop them.
func (s *Server) restoreAll() error {
	entries, err := os.ReadDir(s.cfg.SnapshotDir)
	if err != nil {
		return fmt.Errorf("serve: scan snapshot dir: %w", err)
	}
	for _, e := range entries {
		path := filepath.Join(s.cfg.SnapshotDir, e.Name())
		switch {
		case !e.IsDir() && strings.HasSuffix(e.Name(), snapSuffix):
			return fmt.Errorf("serve: stray snapshot %s: checkpoints live in %s", path, s.dir())
		case e.IsDir() && e.Name() != snapSubdir && strings.HasPrefix(e.Name(), "shard-"):
			stray, err := filepath.Glob(filepath.Join(path, "*"+snapSuffix))
			if err != nil {
				return fmt.Errorf("serve: scan %s: %w", path, err)
			}
			if len(stray) > 0 {
				return fmt.Errorf("serve: stray snapshot %s: checkpoints live in %s", stray[0], s.dir())
			}
		}
	}
	files, err := os.ReadDir(s.dir())
	if err != nil {
		return fmt.Errorf("serve: scan snapshot dir: %w", err)
	}
	for _, e := range files {
		if e.IsDir() || !strings.HasSuffix(e.Name(), snapSuffix) {
			continue
		}
		name := strings.TrimSuffix(e.Name(), snapSuffix)
		mon, err := s.loadMonitor(filepath.Join(s.dir(), e.Name()))
		if err != nil {
			return fmt.Errorf("serve: restore tenant %q: %w", name, err)
		}
		s.tenants[name] = newTenant(name, mon, s)
	}
	return nil
}

// loadMonitor decodes one checkpoint and restores the monitor, applying
// the server's default window to states that carry none — the restore
// half of the DefaultWindow contract (see Config.DefaultWindow).
func (s *Server) loadMonitor(path string) (*core.Monitor, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := snapshot.DecodeMonitor(f)
	if err != nil {
		return nil, fmt.Errorf("snapshot %s: %w", path, err)
	}
	st.ApplyDefaultWindow(s.cfg.DefaultWindow)
	m, err := core.RestoreMonitor(st)
	if err != nil {
		return nil, fmt.Errorf("snapshot %s: %w", path, err)
	}
	return m, nil
}

// Handler returns the daemon's HTTP API.
func (s *Server) Handler() http.Handler { return s.mux }

// tenant returns the named tenant, or nil.
func (s *Server) tenant(name string) *tenant {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.tenants[name]
}

// insert creates and registers a tenant, re-checking the draining flag
// under the same lock Drain holds while it sets the flag and captures
// the tenant list. That closes the create-vs-drain TOCTOU: a create
// either lands before the capture (and is stopped and checkpointed by
// Drain) or fails with errDraining — it can never slip in between and
// leave a running, never-checkpointed tenant behind.
func (s *Server) insert(name string, mon *core.Monitor) (*tenant, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining.Load() {
		return nil, errDraining
	}
	if _, ok := s.tenants[name]; ok {
		return nil, errExists
	}
	t := newTenant(name, mon, s)
	s.tenants[name] = t
	return t, nil
}

// tenantNames returns all tenant names, sorted for stable listings.
func (s *Server) tenantNames() []string {
	s.mu.Lock()
	names := make([]string, 0, len(s.tenants))
	for n := range s.tenants {
		names = append(names, n)
	}
	s.mu.Unlock()
	sort.Strings(names)
	return names
}

func (s *Server) setTenantGauge() {
	s.mu.Lock()
	n := len(s.tenants)
	s.mu.Unlock()
	s.cfg.Obs.Gauge("fenrir_serve_tenants").Set(float64(n))
}

// addPending tracks the daemon-wide admitted-but-unappended backlog.
func (s *Server) addPending(delta int64) {
	s.pendingGauge.Set(float64(s.pending.Add(delta)))
}

// Drain stops accepting observations and, for every tenant, waits for
// its queue to empty and writes a final checkpoint, recording the drain
// wall time. Call it on SIGTERM before shutting the HTTP server down;
// afterwards queries still work but ingest and creates return 503.
func (s *Server) Drain() error {
	t0 := time.Now()
	// The flag and the tenant list are taken under one critical section
	// (see insert).
	s.mu.Lock()
	s.draining.Store(true)
	ts := make([]*tenant, 0, len(s.tenants))
	for _, t := range s.tenants {
		ts = append(ts, t)
	}
	s.mu.Unlock()
	var firstErr error
	for _, t := range ts {
		// stop drains the queue and parks the worker, so the final
		// checkpoint below covers every accepted observation and races
		// with nothing.
		t.stop()
		if s.cfg.SnapshotDir == "" {
			continue
		}
		if _, err := t.checkpoint(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	d := time.Since(t0)
	s.drainNanos.Store(d.Nanoseconds())
	s.drainGauge.Set(d.Seconds())
	// Stop the sampler last: its final tick captures the drained state
	// (drain gauge, final checkpoint counters) in the rings and gives
	// every alert rule one last evaluation before the manifest is cut.
	s.hist.Stop()
	return firstErr
}

// isDraining reports whether Drain has begun.
func (s *Server) isDraining() bool {
	return s.draining.Load()
}
