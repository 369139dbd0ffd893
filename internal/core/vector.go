// Package core implements Fenrir's analysis pipeline — the paper's primary
// contribution. It turns cleaned catchment observations into routing
// vectors (§2.2), compares them with weighted Gower similarity (§2.6.1),
// discovers recurring routing modes with hierarchical agglomerative
// clustering under an adaptively chosen distance threshold (§2.6.2),
// quantifies change with transition matrices (§2.7), and detects change
// events for validation against operator ground truth (§3).
//
// Vectors live in a Space: a fixed, ordered universe of networks plus an
// interned site alphabet. Keeping assignments as int32 indexes into the
// Space makes the all-pairs Φ computation over years of daily vectors a
// tight loop over dense slices rather than map traffic.
package core

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"fenrir/internal/timeline"
)

// Unknown is the assignment index for a network whose catchment was not
// observed. The paper's Φ treats unknowns pessimistically: they never
// match, pulling similarity down (§2.6.1).
const Unknown int32 = -1

// Reserved site labels mirroring the paper's figures: probes that failed
// ("err") and responses that could not be attributed ("other").
const (
	SiteError = "err"
	SiteOther = "other"
)

// Space defines the universe a family of vectors shares: the ordered set
// of networks (rows of D) and the interned site alphabet (values of D).
// It is safe for concurrent use: the daemon interns a producer's new
// labels while the tenant's worker and query handlers read labels.
type Space struct {
	nets   []string
	netIdx map[string]int

	// mu serializes interning. sites only ever grows: a new label is
	// appended past every published length and the longer header is
	// stored, so readers load it without taking mu.
	mu      sync.Mutex
	siteIdx map[string]int
	sites   atomic.Pointer[[]string]
}

// NewSpace creates a space over the given network identifiers (e.g. "/24"
// prefixes or vantage-point names). Order is preserved and duplicate
// identifiers panic: the network universe is fixed per study, so a
// duplicate indicates a data-assembly bug.
func NewSpace(networks []string) *Space {
	s := &Space{
		nets:    append([]string(nil), networks...),
		netIdx:  make(map[string]int, len(networks)),
		siteIdx: make(map[string]int),
	}
	s.sites.Store(new([]string))
	for i, n := range networks {
		if _, dup := s.netIdx[n]; dup {
			panic(fmt.Sprintf("core: duplicate network %q", n))
		}
		s.netIdx[n] = i
	}
	return s
}

// NumNetworks returns the size of the network universe.
func (s *Space) NumNetworks() int { return len(s.nets) }

// Network returns the identifier of network i.
func (s *Space) Network(i int) string { return s.nets[i] }

// NetworkIndex resolves an identifier to its row, or -1.
func (s *Space) NetworkIndex(name string) int {
	if i, ok := s.netIdx[name]; ok {
		return i
	}
	return -1
}

// SiteIndex interns a site label, assigning the next index on first use.
func (s *Space) SiteIndex(name string) int32 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if i, ok := s.siteIdx[name]; ok {
		return int32(i)
	}
	sites := append(s.siteList(), name)
	s.sites.Store(&sites)
	i := len(sites) - 1
	s.siteIdx[name] = i
	return int32(i)
}

// siteList returns the interned labels published so far.
func (s *Space) siteList() []string { return *s.sites.Load() }

// SiteName returns the label of an interned site index; Unknown maps to
// the empty string.
func (s *Space) SiteName(i int32) string {
	if i == Unknown {
		return ""
	}
	return s.siteList()[i]
}

// Sites returns the interned site labels in interning order.
func (s *Space) Sites() []string { return append([]string(nil), s.siteList()...) }

// NumSites returns the number of interned sites.
func (s *Space) NumSites() int { return len(s.siteList()) }

// Vector is one routing result D(t): the catchment assignment of every
// network in the space at epoch T.
type Vector struct {
	Space  *Space
	T      timeline.Epoch
	assign []int32
}

// NewVector returns an all-unknown vector for epoch t.
func (s *Space) NewVector(t timeline.Epoch) *Vector {
	v := &Vector{Space: s, T: t, assign: make([]int32, len(s.nets))}
	for i := range v.assign {
		v.assign[i] = Unknown
	}
	return v
}

// Set assigns network row n to the named site.
func (v *Vector) Set(n int, site string) { v.assign[n] = v.Space.SiteIndex(site) }

// SetIndex assigns network row n to an already-interned site index.
func (v *Vector) SetIndex(n int, site int32) { v.assign[n] = site }

// SetUnknown clears network row n.
func (v *Vector) SetUnknown(n int) { v.assign[n] = Unknown }

// Get returns the interned site index of network row n (Unknown = -1).
func (v *Vector) Get(n int) int32 { return v.assign[n] }

// Site returns the site label of network row n, with ok=false when the
// assignment is unknown.
func (v *Vector) Site(n int) (string, bool) {
	a := v.assign[n]
	if a == Unknown {
		return "", false
	}
	return v.Space.siteList()[a], true
}

// Assignments returns a copy of the vector's interned assignment row
// (Unknown = -1), the raw form checkpoint codecs persist.
func (v *Vector) Assignments() []int32 {
	return append([]int32(nil), v.assign...)
}

// Clone returns a deep copy (used by the cleaning stages, which must not
// mutate raw observations).
func (v *Vector) Clone() *Vector {
	cp := &Vector{Space: v.Space, T: v.T, assign: make([]int32, len(v.assign))}
	copy(cp.assign, v.assign)
	return cp
}

// KnownCount returns how many networks have a known assignment.
func (v *Vector) KnownCount() int {
	n := 0
	for _, a := range v.assign {
		if a != Unknown {
			n++
		}
	}
	return n
}

// Aggregate computes A(t): the number of networks assigned to each site
// (§2.2). Unknown networks are omitted.
func (v *Vector) Aggregate() map[string]int {
	out := make(map[string]int)
	sites := v.Space.siteList()
	for _, a := range v.assign {
		if a != Unknown {
			out[sites[a]]++
		}
	}
	return out
}

// AggregateWeighted computes A(t) with per-network weights (§2.5).
func (v *Vector) AggregateWeighted(w []float64) map[string]float64 {
	out := make(map[string]float64)
	sites := v.Space.siteList()
	for i, a := range v.assign {
		if a != Unknown {
			out[sites[a]] += w[i]
		}
	}
	return out
}

// OneHot renders the N×|S| indicator matrix D*(t) from §2.2. It exists
// for the mathematical definition and for tests; the pipeline itself works
// on the compact index form.
func (v *Vector) OneHot() [][]uint8 {
	m := make([][]uint8, len(v.assign))
	for i, a := range v.assign {
		row := make([]uint8, v.Space.NumSites())
		if a != Unknown {
			row[a] = 1
		}
		m[i] = row
	}
	return m
}

// Series is an ordered collection of vectors over one schedule, the unit
// the comparison, clustering and detection stages consume.
type Series struct {
	Space    *Space
	Schedule timeline.Schedule
	Vectors  []*Vector // sorted by epoch
	Gaps     *timeline.Gaps
}

// NewSeries assembles a series, sorting vectors by epoch. It panics if two
// vectors share an epoch or belong to a different space — use TryNewSeries
// at ingest boundaries that must survive bad batches.
func NewSeries(space *Space, sched timeline.Schedule, vs []*Vector, gaps *timeline.Gaps) *Series {
	s, err := TryNewSeries(space, sched, vs, gaps)
	if err != nil {
		panic(err.Error())
	}
	return s
}

// Len returns the number of vectors.
func (s *Series) Len() int { return len(s.Vectors) }

// At returns the vector with epoch e, or nil (collection gap).
func (s *Series) At(e timeline.Epoch) *Vector {
	i := sort.Search(len(s.Vectors), func(i int) bool { return s.Vectors[i].T >= e })
	if i < len(s.Vectors) && s.Vectors[i].T == e {
		return s.Vectors[i]
	}
	return nil
}
