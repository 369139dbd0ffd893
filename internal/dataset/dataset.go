// Package dataset serializes Fenrir series to and from a portable CSV
// format, the repository's answer to the paper's data-availability
// commitment ("we will release our enterprise and top-website datasets"):
// any scenario's vectors can be exported, shipped, and re-analyzed without
// the simulator.
//
// Format: a header row "network,<epoch>,<epoch>,..." followed by one row
// per network; cells hold site labels, empty = unknown. Collection gaps
// are simply absent epoch columns. The format round-trips every vector
// exactly and is trivially consumable from any toolchain.
package dataset

import (
	"bufio"
	"encoding/csv"
	"fmt"
	"io"
	"strconv"

	"fenrir/internal/core"
	"fenrir/internal/timeline"
)

// Save writes the series to w. Epoch columns appear in ascending order.
func Save(w io.Writer, s *core.Series) error {
	bw := bufio.NewWriter(w)
	cw := csv.NewWriter(bw)

	header := []string{"network"}
	for _, v := range s.Vectors {
		header = append(header, strconv.Itoa(int(v.T)))
	}
	if err := cw.Write(header); err != nil {
		return fmt.Errorf("dataset: write header: %w", err)
	}
	row := make([]string, len(header))
	for n := 0; n < s.Space.NumNetworks(); n++ {
		row[0] = s.Space.Network(n)
		for i, v := range s.Vectors {
			if site, ok := v.Site(n); ok {
				row[i+1] = site
			} else {
				row[i+1] = ""
			}
		}
		if err := cw.Write(row); err != nil {
			return fmt.Errorf("dataset: write row %d: %w", n, err)
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return err
	}
	return bw.Flush()
}

// Load reads a series saved by Save. The schedule is reconstructed from
// sched (the caller knows the study's cadence; the file carries only
// epoch indexes).
func Load(r io.Reader, sched timeline.Schedule) (*core.Series, error) {
	cr := csv.NewReader(bufio.NewReader(r))
	cr.FieldsPerRecord = -1 // validated manually for better messages

	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("dataset: read header: %w", err)
	}
	if len(header) < 1 || header[0] != "network" {
		return nil, fmt.Errorf("dataset: malformed header %v", header)
	}
	epochs := make([]timeline.Epoch, 0, len(header)-1)
	for _, h := range header[1:] {
		e, err := strconv.Atoi(h)
		if err != nil || e < 0 {
			return nil, fmt.Errorf("dataset: bad epoch column %q", h)
		}
		epochs = append(epochs, timeline.Epoch(e))
	}
	for i := 1; i < len(epochs); i++ {
		if epochs[i] <= epochs[i-1] {
			return nil, fmt.Errorf("dataset: epoch columns not strictly ascending")
		}
	}

	var networks []string
	var cells [][]string
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("dataset: read row: %w", err)
		}
		if len(rec) != len(header) {
			return nil, fmt.Errorf("dataset: row %q has %d cells, want %d", rec[0], len(rec), len(header))
		}
		networks = append(networks, rec[0])
		cells = append(cells, rec[1:])
	}
	if len(networks) == 0 {
		return nil, fmt.Errorf("dataset: no networks")
	}

	space := core.NewSpace(networks)
	vectors := make([]*core.Vector, len(epochs))
	for i, e := range epochs {
		vectors[i] = space.NewVector(e)
	}
	// A few labels repeat across every cell: intern each once and assign
	// the rest by index, so the load does not pay the space's interning
	// lock per cell.
	interned := make(map[string]int32)
	for n, row := range cells {
		for i, cell := range row {
			if cell == "" {
				continue
			}
			a, ok := interned[cell]
			if !ok {
				a = space.SiteIndex(cell)
				interned[cell] = a
			}
			vectors[i].SetIndex(n, a)
		}
	}
	return core.NewSeries(space, sched, vectors, nil), nil
}
