package dist

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strings"
	"sync"
	"syscall"
	"time"

	"ignite/internal/faults"
	"ignite/internal/obs"
)

// Supervisor limits. A worker that stays up stableAfter earns its restart
// budget back; one that crash-loops past maxRestarts consecutive restarts
// is abandoned — the coordinator keeps it down and the rest of the fleet
// absorbs its load. Restart delays double from RestartBackoff up to
// backoffCap. Close waits drainTimeout for SIGTERM'd workers to drain
// before SIGKILL.
const (
	maxRestarts  = 5
	backoffCap   = 5 * time.Second
	stableAfter  = 30 * time.Second
	drainTimeout = 10 * time.Second
)

// SupervisorOptions configures a local worker fleet supervisor.
type SupervisorOptions struct {
	// Workers is the fleet size. Required, positive.
	Workers int
	// Command builds the process for a worker that must listen on addr. The
	// default re-executes the current binary with `-worker -listen <addr>`.
	// Tests and the chaos harness substitute their own (re-entering the
	// test binary through an env-gated TestMain hook).
	Command func(addr string) (*exec.Cmd, error)
	// RestartBackoff is the first restart delay (default 200ms), doubling
	// per consecutive restart up to 5s.
	RestartBackoff time.Duration
	// Log receives supervisor events (default: stderr).
	Log func(format string, args ...any)
}

func (o SupervisorOptions) withDefaults() (SupervisorOptions, error) {
	if o.Workers <= 0 {
		return o, fmt.Errorf("dist: supervisor needs a positive worker count")
	}
	if o.Command == nil {
		exe, err := os.Executable()
		if err != nil {
			return o, fmt.Errorf("dist: locate executable: %w", err)
		}
		o.Command = func(addr string) (*exec.Cmd, error) {
			return exec.Command(exe, "-worker", "-listen", addr), nil
		}
	}
	if o.RestartBackoff <= 0 {
		o.RestartBackoff = 200 * time.Millisecond
	}
	if o.Log == nil {
		o.Log = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "supervisor: "+format+"\n", args...)
		}
	}
	return o, nil
}

// Supervisor spawns and babysits a fleet of local worker processes: each
// worker that exits (crash, OOM, SIGKILL chaos) is restarted on its
// original address with capped exponential backoff, so the coordinator's
// addresses stay stable across restarts and its prober re-admits the
// worker as soon as the replacement answers /v1/health. The first spawn
// binds port 0; the kernel-picked port becomes the worker's permanent
// address (rebinding it immediately works — Go listeners set
// SO_REUSEADDR).
type Supervisor struct {
	opts  SupervisorOptions
	addrs []string

	mu       sync.Mutex
	procs    []*exec.Cmd
	stopping bool
	stopc    chan struct{}
	wg       sync.WaitGroup

	restarts obs.Counter
}

// StartSupervisor spawns the fleet and its monitors. Close stops both.
func StartSupervisor(opts SupervisorOptions) (*Supervisor, error) {
	opts, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	s := &Supervisor{
		opts:  opts,
		procs: make([]*exec.Cmd, opts.Workers),
		stopc: make(chan struct{}),
	}
	for i := 0; i < opts.Workers; i++ {
		cmd, addr, err := s.spawn("127.0.0.1:0")
		if err != nil {
			s.Close()
			return nil, fmt.Errorf("dist: worker %d: %w", i, err)
		}
		s.procs[i] = cmd
		s.addrs = append(s.addrs, addr)
	}
	for i := 0; i < opts.Workers; i++ {
		s.wg.Add(1)
		go s.monitor(i)
	}
	return s, nil
}

// Addrs returns the fleet's stable worker addresses (valid across
// restarts).
func (s *Supervisor) Addrs() []string { return append([]string(nil), s.addrs...) }

// Restarts returns how many worker restarts the supervisor has performed.
func (s *Supervisor) Restarts() uint64 { return s.restarts.Value() }

// Kill SIGKILLs worker i's current process — the chaos harness's murder
// weapon. The monitor notices and restarts it.
func (s *Supervisor) Kill(i int) error {
	s.mu.Lock()
	cmd := s.procs[i]
	s.mu.Unlock()
	if cmd == nil || cmd.Process == nil {
		return fmt.Errorf("dist: worker %d has no live process", i)
	}
	return cmd.Process.Kill()
}

// Close stops restarting, SIGTERMs the fleet (workers drain in-flight
// tasks), and reaps every process — SIGKILL after drainTimeout.
func (s *Supervisor) Close() {
	s.mu.Lock()
	if s.stopping {
		s.mu.Unlock()
		return
	}
	s.stopping = true
	close(s.stopc)
	procs := append([]*exec.Cmd(nil), s.procs...)
	s.mu.Unlock()
	for _, p := range procs {
		if p != nil && p.Process != nil {
			p.Process.Signal(syscall.SIGTERM)
		}
	}
	done := make(chan struct{})
	go func() { s.wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(drainTimeout):
		s.mu.Lock()
		procs = append(procs[:0], s.procs...)
		s.mu.Unlock()
		for _, p := range procs {
			if p != nil && p.Process != nil {
				p.Process.Kill()
			}
		}
		<-done
	}
	// Monitors exited before any initial-spawn failure path reaped; reap
	// stragglers started but never monitored.
	for _, p := range procs {
		if p != nil {
			p.Wait()
		}
	}
}

// spawn starts one worker process listening on addr and waits for its
// ready line. Returns the command and the resolved address.
func (s *Supervisor) spawn(addr string) (*exec.Cmd, string, error) {
	cmd, err := s.opts.Command(addr)
	if err != nil {
		return nil, "", err
	}
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, "", fmt.Errorf("worker stdout: %w", err)
	}
	if err := cmd.Start(); err != nil {
		return nil, "", fmt.Errorf("spawn worker: %w", err)
	}
	got, err := readReadyLine(out)
	if err != nil {
		cmd.Process.Kill()
		cmd.Wait()
		return nil, "", err
	}
	return cmd, got, nil
}

// monitor owns worker i's lifecycle: it reaps each exit and decides
// whether to restart. A worker that stays up stableAfter earns a fresh
// restart budget; one that crash-loops past maxRestarts is abandoned.
func (s *Supervisor) monitor(i int) {
	defer s.wg.Done()
	addr := s.addrs[i]
	consecutive := 0
	for {
		s.mu.Lock()
		cmd := s.procs[i]
		s.mu.Unlock()
		start := time.Now()
		werr := cmd.Wait()
		s.mu.Lock()
		stopping := s.stopping
		s.mu.Unlock()
		if stopping {
			return
		}
		if time.Since(start) >= stableAfter {
			consecutive = 0
		}
		for {
			if consecutive >= maxRestarts {
				s.opts.Log("worker %d (%s) burned its %d-restart budget; abandoning it", i, addr, maxRestarts)
				return
			}
			consecutive++
			backoff := faults.Backoff(s.opts.RestartBackoff, backoffCap, consecutive)
			s.opts.Log("worker %d (%s) exited (%v); restart %d/%d in %v",
				i, addr, werr, consecutive, maxRestarts, backoff)
			select {
			case <-time.After(backoff):
			case <-s.stopc:
				return
			}
			newCmd, _, err := s.spawn(addr)
			if err != nil {
				werr = err
				continue
			}
			s.restarts.Inc()
			s.mu.Lock()
			if s.stopping {
				s.mu.Unlock()
				newCmd.Process.Signal(syscall.SIGTERM)
				newCmd.Wait()
				return
			}
			s.procs[i] = newCmd
			s.mu.Unlock()
			break
		}
	}
}

func readReadyLine(r io.Reader) (string, error) {
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, ReadyPrefix) {
			// Keep draining stdout in the background so the worker never
			// blocks on a full pipe.
			go io.Copy(io.Discard, r)
			return strings.TrimSpace(strings.TrimPrefix(line, ReadyPrefix)), nil
		}
	}
	if err := sc.Err(); err != nil {
		return "", err
	}
	return "", fmt.Errorf("worker exited before printing ready line")
}
