package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"fenrir/internal/obs"
	"fenrir/internal/snapshot"
)

// Regression for the create-vs-drain TOCTOU: handleCreateTenant used to
// check isDraining before taking the tenant-map lock, so a create racing
// Drain could insert a tenant after the drain snapshot of the tenant
// list — leaving it running and never checkpointed. Now the draining
// flag is re-checked under the tenant-map lock: every 201 tenant must
// end up stopped with a checkpoint file, and every 503 tenant must not
// exist at all.
func TestCreateDuringDrainRace(t *testing.T) {
	dir := t.TempDir()
	s, ts := testServer(t, Config{SnapshotDir: dir, Obs: obs.NewRegistry()})

	const creators = 48
	codes := make([]int, creators)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < creators; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			codes[i], _ = doReq(t, ts, http.MethodPut,
				fmt.Sprintf("/v1/tenants/race-%02d", i), defaultSpec(6))
		}(i)
	}
	drained := make(chan error, 1)
	go func() {
		<-start
		time.Sleep(200 * time.Microsecond) // let some creates land first
		drained <- s.Drain()
	}()
	close(start)
	wg.Wait()
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}

	var created, refused int
	for i, code := range codes {
		name := fmt.Sprintf("race-%02d", i)
		switch code {
		case http.StatusCreated:
			created++
			tn := s.tenant(name)
			if tn == nil {
				t.Fatalf("%s got 201 but is missing", name)
			}
			tn.mu.Lock()
			stopped := tn.stopped
			tn.mu.Unlock()
			if !stopped {
				t.Fatalf("%s got 201 but its worker survived the drain", name)
			}
			if _, err := os.Stat(tn.snapshotPath()); err != nil {
				t.Fatalf("%s got 201 but drain left no checkpoint: %v", name, err)
			}
		case http.StatusServiceUnavailable:
			refused++
			if s.tenant(name) != nil {
				t.Fatalf("%s got 503 but exists", name)
			}
		default:
			t.Fatalf("%s: unexpected status %d", name, code)
		}
	}
	t.Logf("created=%d refused=%d", created, refused)
}

// A checkpoint written without a window frame (or with window 0) must
// come back bounded when the daemon restarts under -window, exactly like
// a freshly created windowed tenant that saw the same stream.
func TestRestoreAppliesDefaultWindow(t *testing.T) {
	const W, total = 16, 40
	nets := specNets(30)
	dir := t.TempDir()

	// Era 1: unbounded daemon, no default window. The checkpoint carries
	// Window = 0.
	s1, ts1 := testServer(t, Config{SnapshotDir: dir})
	if code, _ := doReq(t, ts1, http.MethodPut, "/v1/tenants/bgp", defaultSpec(30)); code != http.StatusCreated {
		t.Fatal("create failed")
	}
	mustIngest(t, ts1, "bgp", nets, 0, total, total/2)
	waitHistory(t, ts1, "bgp", total)
	if err := s1.Drain(); err != nil {
		t.Fatal(err)
	}

	// Era 2: same snapshot dir, restarted with a default window.
	_, ts2 := testServer(t, Config{SnapshotDir: dir, DefaultWindow: W})
	_, body := doReq(t, ts2, http.MethodGet, "/v1/tenants/bgp", nil)
	var st struct {
		History   int    `json:"history"`
		Window    int    `json:"window"`
		Evictions uint64 `json:"evictions"`
	}
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.Window != W || st.History != W {
		t.Fatalf("restored tenant: window=%d history=%d, want both %d", st.Window, st.History, W)
	}
	if want := uint64(total - W); st.Evictions != want {
		t.Fatalf("restored tenant: evictions=%d, want %d", st.Evictions, want)
	}
	got := deterministicQueries(t, ts2, "bgp")

	// Control: a windowed tenant that saw the identical stream from birth.
	_, ts3 := testServer(t, Config{DefaultWindow: W})
	if code, _ := doReq(t, ts3, http.MethodPut, "/v1/tenants/bgp", defaultSpec(30)); code != http.StatusCreated {
		t.Fatal("control create failed")
	}
	mustIngest(t, ts3, "bgp", nets, 0, total, total/2)
	waitHistory(t, ts3, "bgp", W)
	want := deterministicQueries(t, ts3, "bgp")
	for path, w := range want {
		if got[path] != w {
			t.Fatalf("restored-under-window differs from fresh windowed at %s:\n got: %s\nwant: %s",
				path, got[path], w)
		}
	}
}

// Checkpoints live in exactly one directory, <dir>/shard-0/. A *.fsnap
// anywhere else under the snapshot dir — flat in <dir>, or in another
// shard-<k>/ left by a daemon that spread tenants over several
// directories — makes New fail with an error naming the file, rather
// than start without those tenants.
func TestStraySnapshotRefused(t *testing.T) {
	nets := specNets(12)
	src := t.TempDir()
	s0, ts0 := testServer(t, Config{SnapshotDir: src})
	if code, _ := doReq(t, ts0, http.MethodPut, "/v1/tenants/old", defaultSpec(12)); code != http.StatusCreated {
		t.Fatal("create failed")
	}
	mustIngest(t, ts0, "old", nets, 0, 6, 3)
	if err := s0.Drain(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(src, "shard-0", "old"+snapSuffix))
	if err != nil {
		t.Fatalf("checkpoint not at <dir>/shard-0/: %v", err)
	}

	for _, rel := range []string{"old" + snapSuffix, filepath.Join("shard-3", "old"+snapSuffix)} {
		dir := t.TempDir()
		stray := filepath.Join(dir, rel)
		if err := os.MkdirAll(filepath.Dir(stray), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(stray, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := New(Config{SnapshotDir: dir})
		if err == nil || !strings.Contains(err.Error(), stray) {
			t.Fatalf("stray %s: New returned %v, want an error naming it", rel, err)
		}
	}

	// Unrelated files and directories are left alone.
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, "shard-0"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "shard-0", "old"+snapSuffix), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(dir, "shard-1"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "notes.txt"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, ts := testServer(t, Config{SnapshotDir: dir})
	waitHistory(t, ts, "old", 6)
}

// /mode must take the newest row from the LiveModes result itself:
// pairing LiveModes with a separate Len call lets an append land between
// the two and name a row the result does not hold, and /mode then
// answers 404 "latest observation is in no mode". With a writer
// appending and readers looping /mode, every read after the first
// visible append must answer 200.
func TestModeDuringAppend(t *testing.T) {
	_, ts := testServer(t, Config{})
	const epochs = 200
	nets := specNets(16)
	if code, _ := doReq(t, ts, http.MethodPut, "/v1/tenants/race", defaultSpec(16)); code != http.StatusCreated {
		t.Fatal("create failed")
	}
	// Epochs 0 and 1 intern every site label the stream uses (the flip
	// is at epoch 1), so the concurrent phase below adds no new labels.
	mustIngest(t, ts, "race", nets, 0, 2, 1)
	waitHistory(t, ts, "race", 2)

	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				if code, body := doReq(t, ts, http.MethodGet, "/v1/tenants/race/mode", nil); code != http.StatusOK {
					t.Errorf("/mode during appends: %d %s", code, body)
					return
				}
			}
		}()
	}
	mustIngest(t, ts, "race", nets, 2, epochs, 1)
	waitHistory(t, ts, "race", epochs)
	close(done)
	wg.Wait()
}

// The full lifecycle under the race detector: concurrent creates,
// ingest and explicit checkpoints, then a drain racing the lot.
// Afterwards no tenant may be lost, still have a live worker, or lack a
// checkpoint covering its full history.
func TestShardedConcurrentLifecycle(t *testing.T) {
	dir := t.TempDir()
	s, ts := testServer(t, Config{SnapshotDir: dir, SnapshotEvery: 8, Obs: obs.NewRegistry()})
	nets := specNets(12)

	const tenants = 12
	names := make([]string, tenants)
	for i := range names {
		names[i] = fmt.Sprintf("life-%02d", i)
		if code, body := doReq(t, ts, http.MethodPut, "/v1/tenants/"+names[i], defaultSpec(12)); code != http.StatusCreated {
			t.Fatalf("create %s: %d %s", names[i], code, body)
		}
	}

	var wg sync.WaitGroup
	start := make(chan struct{})
	// One writer per tenant, in strict epoch order; during the drain race
	// it tolerates 503s and stops.
	for _, name := range names {
		wg.Add(1)
		go func(name string) {
			defer wg.Done()
			<-start
			for e := 0; e < 32; e++ {
				code, _ := doReq(t, ts, http.MethodPost,
					"/v1/tenants/"+name+"/observations", observation(nets, e, 16))
				if code == http.StatusServiceUnavailable {
					return
				}
				if code != http.StatusAccepted && code != http.StatusTooManyRequests {
					t.Errorf("%s epoch %d: status %d", name, e, code)
					return
				}
			}
		}(name)
	}
	// Checkpointers hammer two tenants.
	for _, name := range names[:2] {
		wg.Add(1)
		go func(name string) {
			defer wg.Done()
			<-start
			for i := 0; i < 8; i++ {
				doReq(t, ts, http.MethodPost, "/v1/tenants/"+name+"/checkpoint", nil)
			}
		}(name)
	}
	// Late creates race the drain: each either lands (and must then be
	// drained like the rest) or is refused.
	late := make([]int, 4)
	for i := range late {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			late[i], _ = doReq(t, ts, http.MethodPut, fmt.Sprintf("/v1/tenants/late-%d", i), defaultSpec(12))
		}(i)
	}
	// And a drain lands mid-flight.
	wg.Add(1)
	var drainErr error
	go func() {
		defer wg.Done()
		<-start
		time.Sleep(2 * time.Millisecond)
		drainErr = s.Drain()
	}()
	close(start)
	wg.Wait()
	if drainErr != nil {
		t.Fatalf("drain: %v", drainErr)
	}
	for i, code := range late {
		if code == http.StatusCreated {
			names = append(names, fmt.Sprintf("late-%d", i))
		} else if code != http.StatusServiceUnavailable {
			t.Fatalf("late-%d: status %d", i, code)
		}
	}

	if got := len(s.tenantNames()); got != len(names) {
		t.Fatalf("%d tenants after drain, want %d", got, len(names))
	}
	for _, name := range names {
		tn := s.tenant(name)
		if tn == nil {
			t.Fatalf("%s lost", name)
		}
		tn.mu.Lock()
		stopped := tn.stopped
		tn.mu.Unlock()
		if !stopped {
			t.Fatalf("%s still has a live worker after drain", name)
		}
		// The checkpoint loads and covers the monitor's full history.
		mon, err := snapshot.LoadMonitor(tn.snapshotPath())
		if err != nil {
			t.Fatalf("%s checkpoint unreadable: %v", name, err)
		}
		if mon.Len() != tn.mon.Len() {
			t.Fatalf("%s checkpoint history %d, live history %d", name, mon.Len(), tn.mon.Len())
		}
	}
}
