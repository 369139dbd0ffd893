package main

import (
	"fmt"
	"math/rand/v2"
	"time"

	"fenrir/internal/core"
	"fenrir/internal/timeline"
)

// The generated inputs. Every stream is a deterministic function of the
// workload seed: a tenant (or an archive) has a few recurring routing
// modes, dwells in one for a while, then moves to another, with
// per-epoch unknowns and single-network flips on top. The daemon and the
// batch pipeline only ever see what these functions produce.

// siteNames is the catchment alphabet of every generated stream.
var siteNames = []string{"LAX", "IAD", "AMS", "SIN", "GRU", "NRT"}

// streamStart anchors every generated schedule; the interval is the
// paper's four minutes.
var streamStart = time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)

const streamInterval = 240 * time.Second

// streamShape sizes one generated stream.
type streamShape struct {
	networks int
	epochs   int
	unknown  float64 // per-cell probability of an unknown observation
	flip     float64 // per-cell probability of a one-epoch site flip
	modes    int     // recurring routing modes
	dwell    int     // epochs spent in a mode before moving to the next
	moved    float64 // share of networks a mode moves off the base mode
}

// stream is one tenant's (or one archive's) observations: cells[e][n] is
// the site index of network n at epoch e, or -1 when unknown.
type stream struct {
	networks []string
	cells    [][]int8
}

func networkNames(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("net%04d", i)
	}
	return out
}

// genStream draws a stream from (seed, id).
func genStream(seed uint64, id int, sh streamShape) *stream {
	r := rand.New(rand.NewPCG(seed, uint64(id)*0x9e3779b97f4a7c15+1))
	base := make([]int8, sh.networks)
	for n := range base {
		base[n] = int8(r.IntN(len(siteNames)))
	}
	modes := make([][]int8, sh.modes)
	modes[0] = base
	for k := 1; k < sh.modes; k++ {
		m := append([]int8(nil), base...)
		for n := range m {
			if r.Float64() < sh.moved {
				m[n] = int8((int(m[n]) + 1 + r.IntN(len(siteNames)-1)) % len(siteNames))
			}
		}
		modes[k] = m
	}
	// The mode sequence has the same shape for every seed — fixed dwell,
	// every mode recurring in a seed-shuffled cycle — so the cost of
	// clustering, detection and rendering does not drift with the seed;
	// only the assignments and the noise do.
	order := r.Perm(sh.modes)
	cells := make([][]int8, sh.epochs)
	for e := range cells {
		cur := order[(e/sh.dwell)%sh.modes]
		row := make([]int8, sh.networks)
		for n := range row {
			switch x := r.Float64(); {
			case x < sh.unknown:
				row[n] = -1
			case x < sh.unknown+sh.flip:
				row[n] = int8(r.IntN(len(siteNames)))
			default:
				row[n] = modes[cur][n]
			}
		}
		cells[e] = row
	}
	return &stream{networks: networkNames(sh.networks), cells: cells}
}

// vector builds epoch e of the stream over space (which must hold the
// stream's networks in order).
func (s *stream) vector(space *core.Space, e int) *core.Vector {
	v := space.NewVector(timeline.Epoch(e))
	for n, c := range s.cells[e] {
		if c >= 0 {
			v.Set(n, siteNames[c])
		}
	}
	return v
}

// body renders epoch e as a POST …/observations body; unknown networks
// are left out, as a producer would.
func (s *stream) body(e int) []byte {
	b := make([]byte, 0, 24+len(s.cells[e])*20)
	b = fmt.Appendf(b, `{"epoch":%d,"sites":{`, e)
	first := true
	for n, c := range s.cells[e] {
		if c < 0 {
			continue
		}
		if !first {
			b = append(b, ',')
		}
		first = false
		b = fmt.Appendf(b, `"%s":"%s"`, s.networks[n], siteNames[c])
	}
	return append(b, "}}"...)
}

// series builds the whole stream as a core series.
func (s *stream) series() *core.Series {
	space := core.NewSpace(s.networks)
	vs := make([]*core.Vector, len(s.cells))
	for e := range vs {
		vs[e] = s.vector(space, e)
	}
	return core.NewSeries(space, streamSchedule(len(s.cells)), vs, nil)
}

func streamSchedule(epochs int) timeline.Schedule {
	return timeline.NewSchedule(streamStart, streamInterval, epochs)
}
