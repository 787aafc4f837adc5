package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"

	"andorsched/internal/obs"
	"andorsched/internal/serve"
)

// traceRing is the flight-recorder size of a traced andord: the traced
// phase's most recent traceRing requests are joined with their client-side
// round trips for the layer budget.
const traceRing = 4096

// server is one andord process under test.
type server struct {
	cmd  *exec.Cmd
	addr string
	done chan struct{} // closed when the stderr drain ends
	log  []string      // andord's stderr, kept for error reports
}

// startServer launches andord on a loopback port chosen by the kernel and
// returns once it is listening. Tracing is off unless traced is set.
func startServer(bin string, traced bool) (*server, error) {
	args := []string{"-addr", "127.0.0.1:0", "-workers", strconv.Itoa(senders)}
	if traced {
		args = append(args, "-trace-ring", strconv.Itoa(traceRing))
	} else {
		args = append(args, "-trace-off")
	}
	cmd := exec.Command(bin, args...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(senders))
	// If the benchmark dies without stopping andord, the kernel kills it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start andord: %w", err)
	}
	s := &server{cmd: cmd, done: make(chan struct{})}
	addrc := make(chan string, 1)
	go func() {
		defer close(s.done)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			if len(s.log) < 64 {
				s.log = append(s.log, line)
			}
			if _, rest, ok := strings.Cut(line, "listening on "); ok {
				if f := strings.Fields(rest); len(f) > 0 {
					select {
					case addrc <- f[0]:
					default:
					}
				}
			}
		}
	}()
	select {
	case s.addr = <-addrc:
		return s, nil
	case <-s.done:
	case <-time.After(20 * time.Second):
	}
	s.kill()
	return nil, fmt.Errorf("andord did not report its listen address: %s", strings.Join(s.log, " | "))
}

// kill stops andord without draining and reaps it.
func (s *server) kill() {
	_ = s.cmd.Process.Kill()
	<-s.done
	_ = s.cmd.Wait()
}

// stop drains andord with SIGTERM (as an operator would) and waits for it;
// a drain that fails or hangs is an error.
func (s *server) stop() error {
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		s.kill()
		return err
	}
	waited := make(chan error, 1)
	go func() {
		<-s.done
		waited <- s.cmd.Wait()
	}()
	select {
	case err := <-waited:
		if err != nil {
			return fmt.Errorf("andord drain: %v (%s)", err, strings.Join(s.log, " | "))
		}
		return nil
	case <-time.After(60 * time.Second):
		_ = s.cmd.Process.Kill()
		<-waited
		return fmt.Errorf("andord did not drain within 60s")
	}
}

// get fetches one introspection endpoint on a fresh connection (never one
// of the load connections).
func (s *server) get(path string) ([]byte, error) {
	cl := http.Client{Timeout: 30 * time.Second, Transport: &http.Transport{DisableKeepAlives: true}}
	resp, err := cl.Get("http://" + s.addr + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return b, nil
}

// scrape reads /metrics into a map from series ("name" or
// "name{label=...}") to value.
func (s *server) scrape() (map[string]float64, error) {
	b, err := s.get("/metrics")
	if err != nil {
		return nil, err
	}
	m := map[string]float64{}
	for _, line := range strings.Split(string(b), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		m[line[:i]] = v
	}
	return m, nil
}

// traces fetches the flight recorder's retained requests, newest first.
func (s *server) traces(limit int) ([]obs.RequestTrace, error) {
	b, err := s.get("/debug/requests?limit=" + strconv.Itoa(limit))
	if err != nil {
		return nil, err
	}
	var dr serve.DebugRequests
	if err := json.Unmarshal(b, &dr); err != nil {
		return nil, fmt.Errorf("decode /debug/requests: %w", err)
	}
	return dr.Recent, nil
}

// peakRSSMB is andord's VmHWM (resident-set high-water mark) in MiB.
func (s *server) peakRSSMB() (float64, error) {
	return vmHWM(strconv.Itoa(s.cmd.Process.Pid))
}

// vmHWM reads a process's VmHWM from /proc ("self" for this process), in MiB.
func vmHWM(pid string) (float64, error) {
	b, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) < 1 {
				break
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}

// counterDelta is after[name] − before[name].
func counterDelta(before, after map[string]float64, name string) float64 {
	return after[name] - before[name]
}
