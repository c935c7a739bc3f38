package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// server is one running served process.
type server struct {
	cmd    *exec.Cmd
	base   string // http://host:port
	client *http.Client
	logs   chan struct{} // closed when the log copier has drained stderr
	exited chan struct{} // closed when the process has been waited for
}

var listenRE = regexp.MustCompile(`listening on (\S+)`)

// startServer runs served with args plus a loopback address on a free
// port, and returns once /healthz answers. served's log goes to logw.
func startServer(ctx context.Context, bin string, args []string, logw io.Writer) (*server, error) {
	args = append(append([]string(nil), args...), "-addr", "127.0.0.1:0")
	cmd := exec.Command(bin, args...)
	cmd.Stdout = logw
	// served must not outlive the benchmark, even when it is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start served: %w", err)
	}
	s := &server{cmd: cmd, logs: make(chan struct{}), exited: make(chan struct{})}
	addrc := make(chan string, 1) // one send at most: the first listen line
	go func() {
		defer close(s.logs)
		sc := bufio.NewScanner(stderr)
		sent := false
		for sc.Scan() {
			line := sc.Text()
			fmt.Fprintln(logw, line)
			if m := listenRE.FindStringSubmatch(line); m != nil && !sent {
				addrc <- m[1]
				sent = true
			}
		}
	}()
	go func() {
		<-s.logs
		_ = cmd.Wait()
		close(s.exited)
	}()
	select {
	case addr := <-addrc:
		s.base = "http://" + addr
	case <-s.exited:
		return nil, fmt.Errorf("served exited before listening (%s)", cmd.ProcessState)
	case <-time.After(120 * time.Second):
		s.stop()
		return nil, fmt.Errorf("served did not listen within 120s")
	case <-ctx.Done():
		s.stop()
		return nil, ctx.Err()
	}
	s.client = &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: clients, MaxConnsPerHost: clients, DisableCompression: true},
		Timeout:   120 * time.Second,
	}
	for {
		var h struct{ Status string }
		if err := s.getJSON("/healthz", &h); err == nil && h.Status == "ok" {
			return s, nil
		}
		select {
		case <-s.exited:
			return nil, fmt.Errorf("served exited before /healthz answered")
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// stop terminates served (SIGTERM, then SIGKILL after 10s) and waits for
// it to exit.
func (s *server) stop() {
	if s == nil {
		return
	}
	if s.client != nil {
		s.client.CloseIdleConnections()
	}
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.exited:
	case <-time.After(10 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.exited
	}
}

func (s *server) getJSON(path string, dst any) error {
	resp, err := s.client.Get(s.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(dst)
}

func (s *server) postJSON(path string, body any, dst any) error {
	data, err := json.Marshal(body)
	if err != nil {
		return err
	}
	resp, err := s.client.Post(s.base+path, "application/json", bytes.NewReader(data))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("POST %s: %s: %s", path, resp.Status, strings.TrimSpace(string(msg)))
	}
	return json.NewDecoder(resp.Body).Decode(dst)
}

// prepare registers every template under its name.
func (s *server) prepare(tmpls []Template) error {
	for _, t := range tmpls {
		var out struct{ Name string }
		if err := s.postJSON("/prepare", map[string]string{"name": t.Name, "query": t.Text}, &out); err != nil {
			return err
		}
	}
	return nil
}

// serverStats is the subset of GET /stats the benchmark reads.
type serverStats struct {
	Store struct {
		Triples        int    `json:"triples"`
		PendingInserts int    `json:"pending_inserts"`
		PendingDeletes int    `json:"pending_deletes"`
		Backend        string `json:"backend"`
	} `json:"store"`
	Updates struct {
		Updates          uint64 `json:"updates"`
		Compactions      uint64 `json:"compactions"`
		CompactThreshold int    `json:"compact_threshold"`
	} `json:"updates"`
	Cache struct {
		Hits   uint64 `json:"hits"`
		Misses uint64 `json:"misses"`
	} `json:"cache"`
	Pool struct {
		Workers     int     `json:"workers"`
		Rejected    uint64  `json:"rejected"`
		TokenWaitMs float64 `json:"token_wait_ms"`
	} `json:"pool"`
	Engine struct {
		Mode     string `json:"mode"`
		Leapfrog bool   `json:"leapfrog"`
	} `json:"engine"`
}

func (s *server) stats() (serverStats, error) {
	var st serverStats
	err := s.getJSON("/stats", &st)
	return st, err
}

// memory returns served's current and peak resident set size in MB.
func (s *server) memory() (rss, peak float64, err error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		f := strings.Fields(line)
		if len(f) < 2 {
			continue
		}
		kb, perr := strconv.ParseFloat(f[1], 64)
		if perr != nil {
			continue
		}
		switch f[0] {
		case "VmRSS:":
			rss = kb / 1024
		case "VmHWM:":
			peak = kb / 1024
		}
	}
	if rss == 0 {
		return 0, 0, fmt.Errorf("no VmRSS in /proc/%d/status", s.cmd.Process.Pid)
	}
	return rss, peak, nil
}
