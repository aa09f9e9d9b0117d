package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// child is one vada-server process started by the benchmark.
type child struct {
	cmd     *exec.Cmd
	base    string // http://127.0.0.1:port/api/v1
	log     *os.File
	started time.Time
	// bootMs is exec → the port accepting a TCP connection.
	bootMs float64
	exited chan struct{}
}

// startServer execs the vada-server binary with its default flags plus an
// address and a data dir, and waits until the port accepts connections.
func startServer(bin, dataDir, logPath string) (*child, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	cmd := exec.Command(bin, "-addr", addr, "-data-dir", dataDir)
	cmd.Stdout, cmd.Stderr = logf, logf
	// The server must not outlive the benchmark, even if it is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	c := &child{cmd: cmd, base: "http://" + addr + "/api/v1", log: logf, exited: make(chan struct{})}
	c.started = time.Now()
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	go func() {
		_ = cmd.Wait() // the exit status of a killed server carries no information
		close(c.exited)
	}()
	deadline := c.started.Add(30 * time.Second)
	for {
		conn, err := net.DialTimeout("tcp", addr, 100*time.Millisecond)
		if err == nil {
			conn.Close()
			c.bootMs = msSince(c.started)
			return c, nil
		}
		select {
		case <-c.exited:
			logf.Close()
			return nil, fmt.Errorf("vada-server exited during boot; see %s", logPath)
		default:
		}
		if time.Now().After(deadline) {
			c.kill()
			return nil, fmt.Errorf("vada-server did not accept on %s within 30s", addr)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// kill SIGKILLs the server — no graceful shutdown — and waits for it.
func (c *child) kill() {
	if c == nil {
		return
	}
	_ = c.cmd.Process.Kill() // fails only if the process already exited
	<-c.exited
	c.log.Close()
}

// peakRSSMB is the process's peak resident set (VmHWM) in MB.
func (c *child) peakRSSMB() (float64, error) {
	return peakRSSMB(fmt.Sprintf("/proc/%d/status", c.cmd.Process.Pid))
}

// peakRSSMB reads VmHWM from a /proc/<pid>/status file.
func peakRSSMB(statusPath string) (float64, error) {
	f, err := os.Open(statusPath)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in %s", statusPath)
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

func msSince(t0 time.Time) float64 { return float64(time.Since(t0).Nanoseconds()) / 1e6 }

// httpClient is shared by every request the benchmark makes; keep-alive
// connections are reused per server.
var httpClient = &http.Client{Timeout: 60 * time.Second}

// call makes one request and returns status, body and headers. The body is
// read in full.
func call(method, url string, body []byte, contentType string, hdr map[string]string) (int, []byte, http.Header, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return 0, nil, nil, err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := httpClient.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, nil, resp.Header, fmt.Errorf("%s %s: reading body: %w", method, url, err)
	}
	return resp.StatusCode, data, resp.Header, nil
}

// expect checks a status against the wanted one.
func expect(method, url string, got, want int, body []byte) error {
	if got == want {
		return nil
	}
	msg := strings.TrimSpace(string(body))
	if len(msg) > 200 {
		msg = msg[:200]
	}
	return fmt.Errorf("%s %s: status %d, want %d: %s", method, url, got, want, msg)
}

// metricz is the part of the server's /metricz snapshot the benchmark reads.
type metricz struct {
	Counters   map[string]int64 `json:"counters"`
	Histograms map[string]struct {
		Count int64   `json:"count"`
		Sum   float64 `json:"sum"`
	} `json:"histograms"`
}

func (c *child) metricz() (metricz, error) {
	var m metricz
	status, body, _, err := call(http.MethodGet, c.base+"/metricz", nil, "", nil)
	if err == nil {
		err = expect("GET", "/metricz", status, http.StatusOK, body)
	}
	if err == nil {
		err = json.Unmarshal(body, &m)
	}
	return m, err
}

// counterSum sums the series of counter base whose name carries the given
// label fragment ("" matches every label set).
func (m metricz) counterSum(base, label string) int64 {
	var n int64
	for name, v := range m.Counters {
		if (name == base || strings.HasPrefix(name, base+"{")) && strings.Contains(name, label) {
			n += v
		}
	}
	return n
}

// hist returns the summed count and sum of a histogram's matching series.
func (m metricz) hist(base, label string) (count int64, sum float64) {
	for name, h := range m.Histograms {
		if (name == base || strings.HasPrefix(name, base+"{")) && strings.Contains(name, label) {
			count += h.Count
			sum += h.Sum
		}
	}
	return count, sum
}
