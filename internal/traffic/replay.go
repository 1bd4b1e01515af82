package traffic

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/machine"
	"repro/internal/policy"
	"repro/internal/sched"
	"repro/internal/serve"
	"repro/internal/task"
)

// TenantCounts is one tenant's slice of a replay outcome log.
type TenantCounts struct {
	OK          uint64 `json:"ok_200"`
	Rejected    uint64 `json:"rejected_429"`
	Unavailable uint64 `json:"unavailable_503,omitempty"`
	Invalid     uint64 `json:"invalid_400,omitempty"`
	Dropped     uint64 `json:"dropped_504"`
	TasksRun    uint64 `json:"tasks_run"`
}

// Log is the replay decision/outcome log: per-tenant admission
// outcomes plus the engine's deterministic roll-ups. Everything in it
// is a pure function of (trace, replay options) except the Measured*
// fields, which are host-wall-derived and therefore excluded from
// Canonical — ReplaySim's modeled EnergyJ/MakespanS are bit-exact,
// ReplayServe's measured energy is reported but never compared.
type Log struct {
	SchemaVersion int                      `json:"schema_version"`
	Engine        string                   `json:"engine"` // "sim" or "serve"
	Trace         string                   `json:"trace"`
	Events        int                      `json:"events"`
	Batches       uint64                   `json:"batches"`
	Tenants       map[string]*TenantCounts `json:"tenants"`

	// Modeled roll-ups (sim replay; bit-exact).
	EnergyJ   float64 `json:"energy_j,omitempty"`
	MakespanS float64 `json:"makespan_s,omitempty"`

	// Measured roll-ups (serve replay; wall-derived, not comparable).
	MeasuredEnergyJ float64 `json:"measured_energy_j,omitempty"`
	MeasuredWallS   float64 `json:"measured_wall_s,omitempty"`
}

func newLog(engine string, tr *Trace) *Log {
	return &Log{
		SchemaVersion: SchemaVersion,
		Engine:        engine,
		Trace:         tr.Name,
		Events:        len(tr.Events),
		Tenants:       map[string]*TenantCounts{},
	}
}

func (l *Log) tenant(name string) *TenantCounts {
	tc := l.Tenants[name]
	if tc == nil {
		tc = &TenantCounts{}
		l.Tenants[name] = tc
	}
	return tc
}

// count records one job outcome.
func (l *Log) count(tenant string, status int, tasksRun int) {
	tc := l.tenant(tenant)
	switch status {
	case 200:
		tc.OK++
	case 429:
		tc.Rejected++
	case 503:
		tc.Unavailable++
	case 400:
		tc.Invalid++
	default: // 504, queued-drop or mid-batch partial
		tc.Dropped++
	}
	tc.TasksRun += uint64(tasksRun)
}

// Canonical returns the log's deterministic byte form: indented JSON
// with the measured (wall-derived) fields zeroed. Two replays of the
// same trace with the same options must produce identical Canonical
// bytes — the property the determinism gates compare.
func (l *Log) Canonical() ([]byte, error) {
	c := *l
	c.MeasuredEnergyJ = 0
	c.MeasuredWallS = 0
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(&c); err != nil {
		return nil, fmt.Errorf("traffic: encoding log: %w", err)
	}
	return buf.Bytes(), nil
}

// ServeReplay configures a lockstep replay through internal/serve.
type ServeReplay struct {
	// Config is the server configuration (workers, policy, shards,
	// admission bounds…). Clock and ManualFlush are overridden — the
	// replay owns the batch boundary and the clock.
	Config serve.Config
	// FlushEveryS is the virtual batching interval (default 0.025s,
	// serve's default FlushEvery). It models ManualFlush lockstep, not
	// the live server: the live batcher forms a batch when a request
	// arrives at an idle shard and treats FlushEvery as a ceiling, so it
	// forms smaller, earlier batches than these fixed buckets. One
	// batch-formation rule for both clocks is ROADMAP item 3.
	FlushEveryS float64
}

// ReplayServe replays tr through the real admission/batching pipeline
// of internal/serve in lockstep virtual time: events are submitted at
// their trace offsets on a virtual clock, batches form exactly at
// FlushEveryS boundaries on the replay goroutine, and queued-deadline
// expiry is evaluated against the virtual clock. Admission decisions
// (429/503), queued 504 drops, batch composition and per-tenant
// outcome counts are therefore a pure function of (trace, options) —
// replaying the same trace twice produces identical Canonical logs —
// while the task payloads still execute for real on the runtime
// shards. Host-wall quantities (measured energy, batch wall times)
// remain nondeterministic and are reported via the Measured* fields
// only.
func ReplayServe(tr *Trace, opt ServeReplay) (*Log, error) {
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	flushEvery := opt.FlushEveryS
	if flushEvery <= 0 {
		flushEvery = 0.025
	}
	var vnow atomic.Int64 // virtual nanoseconds since the Unix epoch
	cfg := opt.Config
	cfg.Clock = func() time.Time { return time.Unix(0, vnow.Load()) }
	cfg.ManualFlush = true
	srv, err := serve.New(cfg)
	if err != nil {
		return nil, err
	}

	lg := newLog("serve", tr)
	hostStart := time.Now()
	type waiting struct {
		tenant string
		p      *serve.Pending
	}
	var outstanding []waiting
	// settle collects the outcome of every job the last Flush ran.
	// Flush drains the whole backlog, so none of these Waits blocks.
	settle := func() {
		for _, w := range outstanding {
			st, res, _ := w.p.Wait()
			ran := 0
			if res != nil {
				ran = res.TasksRun
			}
			lg.count(w.tenant, st, ran)
		}
		outstanding = outstanding[:0]
	}

	boundary := 1 // next flush boundary is flushEvery·boundary
	for i := range tr.Events {
		ev := &tr.Events[i]
		for ev.OffsetS >= flushEvery*float64(boundary) {
			vnow.Store(int64(flushEvery * float64(boundary) * 1e9))
			srv.Flush()
			settle()
			boundary++
		}
		vnow.Store(int64(ev.OffsetS * 1e9))
		p, rej := srv.Submit(serve.JobRequest{
			Tenant:     ev.Tenant,
			Func:       ev.Class,
			SizeBytes:  ev.SizeBytes,
			Count:      ev.Count,
			Seed:       ev.Seed,
			DeadlineMS: ev.DeadlineMS,
			WorkHintS:  ev.WorkHintS,
		})
		if rej != nil {
			lg.count(ev.Tenant, rej.Status, 0)
			continue
		}
		outstanding = append(outstanding, waiting{ev.Tenant, p})
	}
	// Run out the clock: one boundary past the horizon flushes the
	// tail, then Drain stops the shards (their backlogs are empty, so
	// it returns immediately; the context is a formality).
	end := math.Max(tr.DurationS, flushEvery*float64(boundary))
	vnow.Store(int64(end * 1e9))
	srv.Flush()
	settle()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		return nil, fmt.Errorf("traffic: drain after replay: %w", err)
	}
	settle()

	lg.Batches = srv.Stats().Batches
	lg.MeasuredEnergyJ = srv.EnergyRollup().TotalJ
	lg.MeasuredWallS = time.Since(hostStart).Seconds()
	if n := len(srv.Violations()); n > 0 {
		return lg, fmt.Errorf("traffic: replay raised %d runtime invariant violations", n)
	}
	return lg, nil
}

// SimReplay configures a replay through the discrete-event simulator.
type SimReplay struct {
	Cores  int    // simulated cores (default 8)
	Policy string // canonical policy id (default eewa)
	Seed   uint64 // victim-selection seed (default 1)
	// FlushEveryS buckets arrivals into batches (default 0.025s) — the
	// same fixed boundaries as ServeReplay.FlushEveryS, and like them a
	// model of ManualFlush lockstep, not of the live server's
	// demand-driven batcher (ROADMAP item 3).
	FlushEveryS float64
	// DefaultWorkS is the per-task work for events without a hint
	// (live-captured traces); default 150µs. Generated traces always
	// carry NormPos-sampled hints, so replay never fabricates work for
	// them.
	DefaultWorkS float64
}

// ReplaySim replays tr through the simulator: arrivals are bucketed
// into batches at FlushEveryS boundaries (the virtual image of
// ReplayServe's lockstep flush), jobs whose deadline falls before their batch
// forms are dropped 504 exactly as serve's queued-expiry check drops
// them, and the surviving batches run through sched.Run. The entire
// log — outcome counts, batch count, modeled energy and makespan — is
// bit-exact for a given (trace, options): replaying twice, on any
// host, yields identical Canonical bytes. The simulator has no
// admission bounds, so 429/503 never appear here; compare against
// ReplayServe to see what backpressure subtracts.
func ReplaySim(tr *Trace, opt SimReplay) (*Log, *sched.Result, error) {
	if err := tr.Validate(); err != nil {
		return nil, nil, err
	}
	if opt.Cores <= 0 {
		opt.Cores = 8
	}
	if opt.Policy == "" {
		opt.Policy = policy.IDEEWA
	}
	if opt.Seed == 0 {
		opt.Seed = 1
	}
	flushEvery := opt.FlushEveryS
	if flushEvery <= 0 {
		flushEvery = 0.025
	}
	defaultWork := opt.DefaultWorkS
	if defaultWork <= 0 {
		defaultWork = 150e-6
	}

	lg := newLog("sim", tr)
	var batches []task.Batch
	curWindow := -1
	id := 0
	for i := range tr.Events {
		ev := &tr.Events[i]
		window := int(ev.OffsetS / flushEvery)
		// The batch containing this arrival forms at the next flush
		// boundary; a deadline earlier than that is a queued drop.
		formAt := flushEvery * float64(window+1)
		if ev.DeadlineMS > 0 && ev.OffsetS+float64(ev.DeadlineMS)/1e3 <= formAt {
			lg.count(ev.Tenant, 504, 0)
			continue
		}
		if window != curWindow {
			batches = append(batches, task.Batch{})
			curWindow = window
		}
		b := &batches[len(batches)-1]
		work := ev.WorkHintS
		if work <= 0 {
			work = defaultWork
		}
		for k := 0; k < ev.Count; k++ {
			b.Tasks = append(b.Tasks, task.Task{ID: id, Class: ev.Class, Work: work})
			id++
		}
		lg.count(ev.Tenant, 200, ev.Count)
	}
	if len(batches) == 0 {
		return nil, nil, fmt.Errorf("traffic: trace %q has no replayable events (all dropped or empty)", tr.Name)
	}
	lg.Batches = uint64(len(batches))

	cfg := machine.Generic(opt.Cores)
	pol, err := policy.New(opt.Policy, cfg)
	if err != nil {
		return nil, nil, err
	}
	w := &task.Workload{Name: "trace:" + tr.Name, Batches: batches}
	params := sched.DefaultParams()
	params.Seed = opt.Seed
	res, err := sched.Run(cfg, w, pol, params)
	if err != nil {
		return nil, nil, err
	}
	lg.EnergyJ = res.Energy
	lg.MakespanS = res.Makespan
	return lg, res, nil
}

// WallStats summarizes an open-loop wall-clock replay.
type WallStats struct {
	Submitted int64
	OK        int64
	Rejected  int64 // 429
	Dropped   int64 // 504
	Other     int64
	// Late counts events fired more than one flush interval behind
	// their scheduled time — the driver falling behind the trace.
	Late  int64
	WallS float64
}

// ReplayWall drives tr against an HTTP handler open-loop in wall
// time: each event fires at offset/speed seconds after start,
// regardless of completions, with the event's relative deadline
// translated to an absolute deadline_at on the same scaled timeline
// (so a driver that falls behind produces honest admission fast-fails
// instead of silently relaxed deadlines). speed > 1 compresses the
// trace, raising the offered load. Not deterministic — use ReplayServe
// for bit-exact outcome logs.
func ReplayWall(ctx context.Context, h http.Handler, tr *Trace, speed float64) (*WallStats, error) {
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	if speed <= 0 {
		speed = 1
	}
	var st WallStats
	var wg sync.WaitGroup
	start := time.Now()
	for i := range tr.Events {
		ev := &tr.Events[i]
		due := start.Add(time.Duration(ev.OffsetS / speed * 1e9))
		if d := time.Until(due); d > 0 {
			select {
			case <-time.After(d):
			case <-ctx.Done():
				wg.Wait()
				st.WallS = time.Since(start).Seconds()
				return &st, ctx.Err()
			}
		} else if -d > 100*time.Millisecond {
			atomic.AddInt64(&st.Late, 1)
		}
		req := serve.JobRequest{
			Tenant:    ev.Tenant,
			Func:      ev.Class,
			SizeBytes: ev.SizeBytes,
			Count:     ev.Count,
			Seed:      ev.Seed,
			WorkHintS: ev.WorkHintS,
		}
		if ev.DeadlineMS > 0 {
			expiry := ev.OffsetS + float64(ev.DeadlineMS)/1e3
			req.DeadlineAtMS = start.Add(time.Duration(expiry / speed * 1e9)).UnixMilli()
		}
		atomic.AddInt64(&st.Submitted, 1)
		wg.Add(1)
		go func(req serve.JobRequest) {
			defer wg.Done()
			body, _ := json.Marshal(req)
			r := httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(body))
			w := httptest.NewRecorder()
			h.ServeHTTP(w, r)
			switch w.Code {
			case 200:
				atomic.AddInt64(&st.OK, 1)
			case 429:
				atomic.AddInt64(&st.Rejected, 1)
			case 504:
				atomic.AddInt64(&st.Dropped, 1)
			default:
				atomic.AddInt64(&st.Other, 1)
			}
		}(req)
	}
	wg.Wait()
	st.WallS = time.Since(start).Seconds()
	return &st, nil
}

// ReplayWallBatch is ReplayWall with client-side coalescing: trace
// order is kept, but every `batch` consecutive events go out as one
// POST /v1/jobs:batch. A group fires when its last member comes due,
// so no event ever fires early; per-event lateness is still judged
// against each event's own scheduled time. Per-job outcomes come from
// the batch response's status array, so WallStats counts jobs, not
// requests. batch <= 1 degenerates to ReplayWall.
func ReplayWallBatch(ctx context.Context, h http.Handler, tr *Trace, speed float64, batch int) (*WallStats, error) {
	if batch <= 1 {
		return ReplayWall(ctx, h, tr, speed)
	}
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	if speed <= 0 {
		speed = 1
	}
	var st WallStats
	var wg sync.WaitGroup
	start := time.Now()
	for base := 0; base < len(tr.Events); base += batch {
		end := base + batch
		if end > len(tr.Events) {
			end = len(tr.Events)
		}
		group := tr.Events[base:end]
		due := start.Add(time.Duration(group[len(group)-1].OffsetS / speed * 1e9))
		if d := time.Until(due); d > 0 {
			select {
			case <-time.After(d):
			case <-ctx.Done():
				wg.Wait()
				st.WallS = time.Since(start).Seconds()
				return &st, ctx.Err()
			}
		}
		now := time.Now()
		breq := serve.BatchRequest{Jobs: make([]serve.JobRequest, len(group))}
		for i := range group {
			ev := &group[i]
			if now.Sub(start.Add(time.Duration(ev.OffsetS/speed*1e9))) > 100*time.Millisecond {
				atomic.AddInt64(&st.Late, 1)
			}
			req := serve.JobRequest{
				Tenant:    ev.Tenant,
				Func:      ev.Class,
				SizeBytes: ev.SizeBytes,
				Count:     ev.Count,
				Seed:      ev.Seed,
				WorkHintS: ev.WorkHintS,
			}
			if ev.DeadlineMS > 0 {
				expiry := ev.OffsetS + float64(ev.DeadlineMS)/1e3
				req.DeadlineAtMS = start.Add(time.Duration(expiry / speed * 1e9)).UnixMilli()
			}
			breq.Jobs[i] = req
		}
		atomic.AddInt64(&st.Submitted, int64(len(group)))
		wg.Add(1)
		go func(breq serve.BatchRequest) {
			defer wg.Done()
			body, _ := json.Marshal(breq)
			r := httptest.NewRequest(http.MethodPost, "/v1/jobs:batch", bytes.NewReader(body))
			w := httptest.NewRecorder()
			h.ServeHTTP(w, r)
			var bres serve.BatchResponse
			if err := json.Unmarshal(w.Body.Bytes(), &bres); err != nil || len(bres.Jobs) != len(breq.Jobs) {
				atomic.AddInt64(&st.Other, int64(len(breq.Jobs)))
				return
			}
			for i := range bres.Jobs {
				switch bres.Jobs[i].Status {
				case 200:
					atomic.AddInt64(&st.OK, 1)
				case 429:
					atomic.AddInt64(&st.Rejected, 1)
				case 504:
					atomic.AddInt64(&st.Dropped, 1)
				default:
					atomic.AddInt64(&st.Other, 1)
				}
			}
		}(breq)
	}
	wg.Wait()
	st.WallS = time.Since(start).Seconds()
	return &st, nil
}
