package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"
)

// daemon is one `fenrir -serve` process, the system under test of the
// serve workloads. Every session of a run starts a fresh one, and every
// one is stopped and waited for.
type daemon struct {
	cmd    *exec.Cmd
	base   string // http://host:port
	exited chan struct{}

	mu     sync.Mutex
	stderr bytes.Buffer
}

func fenrirBin(cfg config) string {
	return filepath.Join(cfg.root, ".bench_build", "bin", "fenrir")
}

// startDaemon execs the daemon on a free loopback port over snapDir and
// waits until /healthz answers. Restoring checkpoints happens before the
// daemon listens, so for a warm restart the wait covers the restore.
func startDaemon(cfg config, snapDir string) (*daemon, error) {
	d := &daemon{exited: make(chan struct{})}
	d.cmd = exec.Command(fenrirBin(cfg), "-serve", "127.0.0.1:0", "-snapshot-dir", snapDir)
	d.cmd.Dir = cfg.work
	// The daemon must not outlive the benchmark, even if it is killed.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	pipe, err := d.cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start daemon: %w", err)
	}
	addr := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(pipe)
		for sc.Scan() {
			line := sc.Text()
			d.mu.Lock()
			d.stderr.WriteString(line + "\n")
			d.mu.Unlock()
			if _, rest, ok := strings.Cut(line, "serving api http://"); ok {
				if host, _, ok := strings.Cut(rest, " "); ok {
					select {
					case addr <- host:
					default:
					}
				}
			}
		}
		d.cmd.Wait() //nolint:errcheck // exit status is read from ProcessState
		close(d.exited)
	}()
	select {
	case a := <-addr:
		d.base = "http://" + a
	case <-d.exited:
		return nil, fmt.Errorf("daemon exited before listening: %s", d.log())
	case <-time.After(120 * time.Second):
		d.kill()
		return nil, fmt.Errorf("daemon did not listen within 120s")
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(d.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body) //nolint:errcheck // drained for reuse only
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if time.Now().After(deadline) {
			d.kill()
			return nil, fmt.Errorf("daemon /healthz not ready: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

func (d *daemon) log() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return strings.TrimSpace(d.stderr.String())
}

// kill stops the daemon hard and waits for it.
func (d *daemon) kill() {
	d.cmd.Process.Kill() //nolint:errcheck // already gone is fine
	<-d.exited
}

// drain sends SIGTERM and waits for the daemon to finish its final
// checkpoints and exit; it returns how long that took.
func (d *daemon) drain() (time.Duration, error) {
	t0 := time.Now()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return 0, err
	}
	select {
	case <-d.exited:
	case <-time.After(120 * time.Second):
		d.kill()
		return 0, fmt.Errorf("daemon did not drain within 120s")
	}
	took := time.Since(t0)
	if !d.cmd.ProcessState.Success() {
		return took, fmt.Errorf("daemon exited with %v: %s", d.cmd.ProcessState, d.log())
	}
	return took, nil
}

// client is the load generator's HTTP side: at most nproc keep-alive
// connections, each used by one closed-loop worker.
type client struct {
	hc   *http.Client
	base string
}

func newClient(base string, conns int) *client {
	tr := &http.Transport{
		MaxIdleConns: conns, MaxIdleConnsPerHost: conns, MaxConnsPerHost: conns,
		DisableCompression: true, IdleConnTimeout: time.Minute,
	}
	return &client{hc: &http.Client{Transport: tr, Timeout: 60 * time.Second}, base: base}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends one request and returns the status, the body and the
// client-side latency.
func (c *client) do(method, path string, body []byte) (int, []byte, time.Duration, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, nil, 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	t0 := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, 0, err
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, out, time.Since(t0), err
}

// appends reads the daemon-wide append count from /status, and how
// long the read took.
func (c *client) appends() (uint64, time.Duration, error) {
	code, body, lat, err := c.do("GET", "/status", nil)
	if err != nil {
		return 0, 0, err
	}
	if code != http.StatusOK {
		return 0, 0, fmt.Errorf("/status: %d", code)
	}
	var st struct {
		Appends uint64 `json:"appends"`
	}
	return st.Appends, lat, json.Unmarshal(body, &st)
}

// waitVisible polls /status until the daemon shows want appends,
// appending each poll's latency in ms to lat; it reports false if they
// never all show (lost observations).
func (c *client) waitVisible(want uint64, lat *[]float64) (uint64, bool, error) {
	deadline := time.Now().Add(60 * time.Second)
	for {
		got, d, err := c.appends()
		if err != nil {
			return 0, false, err
		}
		*lat = append(*lat, msOf(d))
		if got >= want {
			return got, got == want, nil
		}
		if time.Now().After(deadline) {
			return got, false, nil
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// waitHistory polls a tenant's status (path is /v1/tenants/<name>)
// until its history holds at least n epochs.
func (c *client) waitHistory(path string, n int) error {
	deadline := time.Now().Add(60 * time.Second)
	for {
		code, body, _, err := c.do("GET", path, nil)
		if err != nil {
			return err
		}
		var st struct {
			History int `json:"history"`
		}
		if code == http.StatusOK && json.Unmarshal(body, &st) == nil && st.History >= n {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s: history never reached %d", path, n)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// copyDir copies the regular files of a checkpoint tree.
func copyDir(src, dst string) error {
	return filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		to := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(to, 0o755)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(to, raw, 0o644)
	})
}
