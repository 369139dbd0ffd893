package fenrir

import (
	"fenrir/internal/core"
	"fenrir/internal/serve"
	"fenrir/internal/snapshot"
)

// ServeConfig configures the long-running monitoring daemon: checkpoint
// directory, queue bounds, metrics registry, and the fault seam. See
// DESIGN.md §8.
type ServeConfig = serve.Config

// ServeServer hosts named Monitor tenants behind the daemon HTTP API
// (`fenrir -serve`): POST observations in, GET modes, events, heatmap
// rows, transition matrices, and largest flows back out. All tenants
// live in one map; a drained and restarted daemon answers every query
// byte-identically.
type ServeServer = serve.Server

// NewServeServer builds a daemon server, warm-restarting any tenants
// checkpointed in cfg.SnapshotDir.
var NewServeServer = serve.New

// TenantSpec and Observation are the daemon's wire types: the PUT
// tenant-creation body and the POST observation body.
type TenantSpec = serve.TenantSpec
type Observation = serve.Observation

// MonitorState is a complete export of a Monitor — configuration,
// history, the triangular Φ values bit for bit, and ingest statistics.
type MonitorState = core.MonitorState

// RestoreMonitor rebuilds a monitor from an exported state; subsequent
// appends continue exactly where the exported monitor stopped.
var RestoreMonitor = core.RestoreMonitor

// SaveMonitor / LoadMonitor checkpoint a monitor to the versioned,
// CRC-framed snapshot file format (atomic same-directory rename on
// write). Encoding is deterministic: the same state always produces
// identical bytes.
var (
	SaveMonitor = snapshot.SaveMonitor
	LoadMonitor = snapshot.LoadMonitor
)

// SaveSeriesSnapshot / LoadSeriesSnapshot checkpoint an observation
// series in the binary snapshot format (SaveSeries/LoadSeries remain
// the portable CSV dataset codec).
var (
	SaveSeriesSnapshot = snapshot.SaveSeries
	LoadSeriesSnapshot = snapshot.LoadSeries
)
