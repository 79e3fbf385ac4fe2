package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// server is a running cmd/aftermath child process listening on
// loopback.
type server struct {
	cmd    *exec.Cmd
	base   string // http://127.0.0.1:port
	log    *os.File
	exited <-chan struct{}
}

// readyTimeout bounds the wait for a child to answer its first 200.
const readyTimeout = 120 * time.Second

// startServer launches the aftermath binary with args plus an -http
// flag on a free loopback port and waits until readyPath answers 200
// and ready accepts the body (nil accepts any). It returns the time
// from process start to that first accepted 200.
func startServer(cfg config, logName, readyPath string, ready func([]byte) bool, args ...string) (*server, time.Duration, error) {
	port, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	logf, err := os.Create(filepath.Join(cfg.work, logName))
	if err != nil {
		return nil, 0, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	s := &server{base: "http://" + addr, log: logf}
	s.cmd = exec.Command(cfg.bin, append([]string{"-http", addr}, args...)...)
	s.cmd.Stdout, s.cmd.Stderr = logf, logf
	// A child outlives nothing: if the benchmark dies, so does it.
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	if err := s.cmd.Start(); err != nil {
		logf.Close()
		return nil, 0, fmt.Errorf("starting %s: %w", cfg.bin, err)
	}
	exited := make(chan struct{})
	go func() {
		// Wait reaps the child; stop waits on exited instead.
		_ = s.cmd.Wait() // the exit status of a killed child carries no information
		close(exited)
	}()
	s.exited = exited
	deadline := start.Add(readyTimeout)
	for time.Now().Before(deadline) {
		select {
		case <-exited:
			logf.Close()
			return nil, 0, fmt.Errorf("server exited before ready: %s", tailLog(logf.Name()))
		default:
		}
		resp, err := pollClient.Get(s.base + readyPath)
		if err == nil {
			body, rerr := io.ReadAll(resp.Body)
			resp.Body.Close()
			if rerr == nil && resp.StatusCode == http.StatusOK && (ready == nil || ready(body)) {
				return s, time.Since(start), nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	s.stop()
	return nil, 0, fmt.Errorf("server not ready after %s: %s", readyTimeout, tailLog(logf.Name()))
}

// peakRSSMB reads the child's peak resident set size (VmHWM) in MB.
func (s *server) peakRSSMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", s.cmd.Process.Pid)
}

// stop kills the child and waits until it has exited.
func (s *server) stop() {
	_ = s.cmd.Process.Kill() // fails only if the child already exited
	<-s.exited
	s.log.Close()
}

func tailLog(path string) string {
	b, _ := os.ReadFile(path) // best effort: only decorates an error
	if len(b) > 600 {
		b = b[len(b)-600:]
	}
	return strings.TrimSpace(string(b))
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// pollClient polls readiness with a short timeout.
var pollClient = &http.Client{Timeout: 2 * time.Second}

// client issues the session's requests: at most two connections per
// host, no compression, so bodies compare as served.
var client = &http.Client{
	Timeout: 60 * time.Second,
	Transport: &http.Transport{
		MaxIdleConnsPerHost: 2,
		DisableCompression:  true,
	},
}

// sample is one completed request.
type sample struct {
	url    string
	status int
	cache  string // X-Cache header: MISS, HIT or empty
	body   []byte
	start  time.Time
	dur    time.Duration
}

// get fetches url into buf and times it from send to the last body
// byte. The sample's body aliases buf. Reusing buffers keeps the
// client's allocations, and so its collector, out of the latencies.
func get(url string, buf *bytes.Buffer) sample {
	buf.Reset()
	s := sample{url: url, start: time.Now()}
	resp, err := client.Get(url)
	if err != nil {
		s.dur = time.Since(s.start)
		return s
	}
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	s.dur = time.Since(s.start)
	if err == nil {
		s.status, s.body = resp.StatusCode, buf.Bytes()
		s.cache = resp.Header.Get("X-Cache")
	}
	return s
}

// bufPool holds response buffers for get.
var bufPool = sync.Pool{New: func() interface{} { return new(bytes.Buffer) }}

// liveStatus is the subset of /live (and of SSE epoch frames) the
// benchmark checks.
type liveStatus struct {
	Name    string `json:"name"`
	Live    bool   `json:"live"`
	Epoch   uint64 `json:"epoch"`
	Start   int64  `json:"start"`
	End     int64  `json:"end"`
	CPUs    int    `json:"cpus"`
	Tasks   int    `json:"tasks"`
	Events  int64  `json:"events"`
	Samples int64  `json:"samples"`
	Error   string `json:"error"`
}

// frame is one SSE epoch frame with its arrival time.
type frame struct {
	at time.Time
	st liveStatus
}

// subscribe opens an SSE stream and delivers every epoch frame to fn
// until ctx ends or the stream closes. It returns once the stream is
// established (the response headers arrived), reporting a failure to
// connect as an error; done is closed when the reader goroutine exits.
func subscribe(ctx context.Context, url string, fn func(frame)) (done <-chan struct{}, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := (&http.Client{}).Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		return nil, fmt.Errorf("%s: status %d", url, resp.StatusCode)
	}
	ch := make(chan struct{})
	go func() {
		defer close(ch)
		defer resp.Body.Close()
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 64<<10), 1<<20)
		event := ""
		for sc.Scan() {
			line := sc.Bytes()
			switch {
			case bytes.HasPrefix(line, []byte("event: ")):
				event = string(line[len("event: "):])
			case bytes.HasPrefix(line, []byte("data: ")) && event == "epoch":
				var st liveStatus
				if json.Unmarshal(line[len("data: "):], &st) == nil {
					fn(frame{at: time.Now(), st: st})
				}
			case len(line) == 0:
				event = ""
			}
		}
	}()
	return ch, nil
}
