package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"yafim/internal/dist"
	"yafim/internal/obs"
)

// distCluster is one master in this process plus worker processes, all on
// 127.0.0.1. The master memoizes finished jobs
// by name, so every mine gets a fresh cluster.
type distCluster struct {
	master    *dist.Master
	log       *obs.EventLog
	reg       *obs.Registry
	workers   []*exec.Cmd
	exited    []chan struct{} // closed when the matching worker has been reaped
	logs      []*os.File
	lost      chan struct{} // closed when the first worker exits
	lostOnce  sync.Once
	workerRSS float64 // largest worker peak RSS in MB, read by stop
}

// errWorkerLost fails a mine during which a worker process exited.
var errWorkerLost = errors.New("dist: a worker process exited during the mine")

// distTuning is the default protocol tuning with the 50 ms heartbeat the
// repository's dist smoke test uses. An idle worker polls for a lease once
// per heartbeat, so under the default 250 ms every job waits a random part
// of a poll for its first lease; the per-mine times then spread so widely
// (16% between seeds at 10 mines a run) that no run length here resolves
// a 25% change.
func distTuning() dist.Tuning {
	t := dist.DefaultTuning()
	t.HeartbeatInterval = 50 * time.Millisecond
	return t
}

// workerArgv is the command line of a worker joining the master at url.
type workerArgv func(url string) []string

// startCluster starts a master with the default tuning and spawns n
// workers, returning once every worker has registered. Worker output goes
// to files under logDir. On error everything started is stopped.
func startCluster(ctx context.Context, argv workerArgv, logDir string, n int) (_ *distCluster, err error) {
	c := &distCluster{log: obs.NewEventLog(nil), reg: obs.NewRegistry(), lost: make(chan struct{})}
	defer func() {
		if err != nil {
			c.stop()
		}
	}()
	c.master, err = dist.StartMaster(dist.MasterOptions{
		Addr: "127.0.0.1:0", Tuning: distTuning(), Log: c.log, Reg: c.reg,
	})
	if err != nil {
		return nil, fmt.Errorf("start master: %w", err)
	}
	for i := 0; i < n; i++ {
		lf, err := os.CreateTemp(logDir, "worker-*.log")
		if err != nil {
			return nil, err
		}
		c.logs = append(c.logs, lf)
		args := argv(c.master.URL())
		cmd := exec.Command(args[0], args[1:]...)
		cmd.Stdout, cmd.Stderr = lf, lf
		// A worker must not outlive the benchmark, even if it is killed.
		cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		if err := cmd.Start(); err != nil {
			return nil, fmt.Errorf("spawn worker: %w", err)
		}
		done := make(chan struct{})
		c.workers = append(c.workers, cmd)
		c.exited = append(c.exited, done)
		go func() {
			cmd.Wait() //nolint:errcheck // the exit status is read via ProcessState
			close(done)
			c.lostOnce.Do(func() { close(c.lost) })
		}()
	}
	deadline := time.Now().Add(30 * time.Second)
	for c.master.LiveWorkers() < n {
		if err := c.deadWorker(); err != nil {
			return nil, err
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("only %d of %d workers registered in 30s", c.master.LiveWorkers(), n)
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(time.Millisecond):
		}
	}
	return c, nil
}

// deadWorker reports a worker process that has exited.
func (c *distCluster) deadWorker() error {
	for i, done := range c.exited {
		select {
		case <-done:
			return fmt.Errorf("worker %d exited: %v", i+1, c.workers[i].ProcessState)
		default:
		}
	}
	return nil
}

// watch returns a context canceled with errWorkerLost as soon as a worker
// exits, so a mine does not wait out the master's liveness timeouts.
func (c *distCluster) watch(ctx context.Context) (context.Context, context.CancelFunc) {
	wctx, cancel := context.WithCancelCause(ctx)
	go func() {
		select {
		case <-c.lost:
			cancel(errWorkerLost)
		case <-wctx.Done():
		}
	}()
	return wctx, func() { cancel(nil) }
}

// healthy reports a worker process exit or any event of a lost worker or
// task during a run that should have had none.
func (c *distCluster) healthy() error {
	if err := c.deadWorker(); err != nil {
		return err
	}
	for _, ev := range c.log.Events() {
		switch ev.Event {
		case "worker_dead", "task_reassign", "lease_expire", "lease_regrant", "task_failed", "map_output_lost":
			return fmt.Errorf("dist: %s (worker %d, %s)", ev.Event, ev.Worker, ev.Detail)
		}
	}
	return nil
}

// stop records the workers' peak resident sets (VmHWM), terminates them
// (SIGTERM, then SIGKILL after 3 s), reaps them, closes their logs and
// shuts the master down. Safe to call on a partly started cluster.
func (c *distCluster) stop() {
	for i, w := range c.workers {
		select {
		case <-c.exited[i]:
		default:
			if mb, err := procStatusMB(w.Process.Pid, "VmHWM"); err == nil {
				c.workerRSS = max(c.workerRSS, mb)
			}
			w.Process.Signal(syscall.SIGTERM) //nolint:errcheck // already exiting is fine
		}
	}
	for i, w := range c.workers {
		select {
		case <-c.exited[i]:
		case <-time.After(3 * time.Second):
			w.Process.Kill() //nolint:errcheck // reaped just below
			<-c.exited[i]
		}
	}
	for _, lf := range c.logs {
		lf.Close()
	}
	if c.master != nil {
		c.master.Close() //nolint:errcheck // shutdown of an idle master
	}
}

// procStatusMB reads one kB-valued field of /proc/<pid>/status in MB.
func procStatusMB(pid int, field string) (float64, error) {
	raw, err := os.ReadFile(filepath.Join("/proc", strconv.Itoa(pid), "status"))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, field+":"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no " + field + " in /proc status")
}

// leaseTimes derives protocol timings from a master event log, in seconds:
// the wait of each first-attempt lease from the moment its task became
// leasable (the job's job_start for a map, the job's last map
// task_complete for a reduce) to its lease_grant; each granted attempt's
// run from lease_grant to its task_complete; and the driver's gaps between
// one job's last task_complete and the next job_start.
func leaseTimes(events []obs.LiveEvent) (waits, runs, gaps []float64) {
	type taskKey struct {
		seq     int
		phase   string
		task    int
		attempt int
	}
	jobStart := map[int]float64{}
	lastMap := map[int]float64{}
	for _, ev := range events {
		switch {
		case ev.Event == "job_start":
			jobStart[ev.Seq] = ev.TsMs
		case ev.Event == "task_complete" && ev.Phase == dist.PhaseMap && ev.TsMs > lastMap[ev.Seq]:
			lastMap[ev.Seq] = ev.TsMs
		}
	}
	granted := map[taskKey]float64{}
	lastEnd, haveEnd := 0.0, false
	for _, ev := range events {
		k := taskKey{ev.Seq, ev.Phase, ev.Task, ev.Attempt}
		switch ev.Event {
		case "job_start":
			if haveEnd {
				gaps = append(gaps, (ev.TsMs-lastEnd)/1e3)
				haveEnd = false
			}
		case "lease_grant":
			granted[k] = ev.TsMs
			if ev.Attempt != 1 {
				break
			}
			ready, ok := jobStart[ev.Seq]
			if ev.Phase == dist.PhaseReduce {
				ready, ok = lastMap[ev.Seq]
			}
			if ok {
				waits = append(waits, (ev.TsMs-ready)/1e3)
			}
		case "task_complete":
			if t, ok := granted[k]; ok {
				runs = append(runs, (ev.TsMs-t)/1e3)
			}
			lastEnd, haveEnd = ev.TsMs, true
		}
	}
	return waits, runs, gaps
}

// countEvents counts events by kind.
func countEvents(events []obs.LiveEvent, kinds ...string) int {
	n := 0
	for _, ev := range events {
		for _, k := range kinds {
			if ev.Event == k {
				n++
			}
		}
	}
	return n
}
