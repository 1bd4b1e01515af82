package traffic

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
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

// defaultWorkS is the per-task work the replay clock charges an event
// without a hint (a captured trace). Generated traces always carry
// NormPos-sampled hints, so replay never fabricates work for them.
const defaultWorkS = 150e-6

// workOf is the per-task work the replay clock charges ev.
func workOf(ev *Event) float64 {
	if ev.WorkHintS > 0 {
		return ev.WorkHintS
	}
	return defaultWorkS
}

// offsetNS is ev's arrival on the replay's virtual clock, in the
// integer nanoseconds both engines compare deadlines in.
func offsetNS(ev *Event) int64 { return int64(ev.OffsetS * 1e9) }

// requestOf is the job ev submits, with its deadline relative.
func requestOf(ev *Event) serve.JobRequest {
	return serve.JobRequest{
		Tenant:     ev.Tenant,
		Func:       ev.Class,
		SizeBytes:  ev.SizeBytes,
		Count:      ev.Count,
		Seed:       ev.Seed,
		DeadlineMS: ev.DeadlineMS,
		WorkHintS:  ev.WorkHintS,
	}
}

// replayClock runs tr through the live batcher's rule in virtual time,
// the one batch-formation model both replayers share. The replayed
// server is busy until the instant busy. Each event is admitted at its
// own offset (admit reports whether it queued); events with equal
// offsets are all admitted before anything forms. Batches form at instant t when the
// server is idle and its queue is not empty: an arrival at an idle
// server forms at its own offset, arrivals while it is busy wait and
// form when it goes idle. form(t) drains the whole queue at t into
// batches of at most MaxBatch tasks, drops the jobs whose deadline has
// passed, and returns the work of the tasks that ran; the server is
// then busy for that work spread over the workers. All instants are
// nanoseconds on the virtual clock.
//
// One difference from the live server remains, and it only shows when
// the backlog at one instant exceeds MaxBatch: live, an arrival during
// the first of two consecutive batches joins the second, while here it
// waits for both.
func replayClock(tr *Trace, workers int, admit func(ev *Event) bool, form func(t int64) (workS float64)) {
	var busy int64
	queued := false
	for i := 0; i < len(tr.Events) || queued; {
		t := busy
		if !queued && offsetNS(&tr.Events[i]) > busy {
			t = offsetNS(&tr.Events[i]) // an idle server forms at once
		}
		for ; i < len(tr.Events) && offsetNS(&tr.Events[i]) <= t; i++ {
			if admit(&tr.Events[i]) {
				queued = true
			}
		}
		if queued {
			busy = t + int64(form(t)/float64(workers)*1e9)
			queued = false
		}
	}
}

// ServeReplay configures a virtual-time replay through internal/serve.
type ServeReplay struct {
	// Config is the server configuration (workers, policy, shards,
	// admission bounds, MaxBatch…). Clock and ManualFlush are
	// overridden — the replay owns the batch boundary and the clock.
	Config serve.Config
}

// ReplayServe replays tr through the real admission/batching pipeline
// of internal/serve in virtual time: events are submitted at their
// trace offsets on a virtual clock, and at every formation instant of
// replayClock the clock stops there and Flush runs the live flushOnce
// on the replay goroutine, so batch composition, the head-of-line
// break and queued-deadline expiry are serve's own. With Shards > 1
// every shard flushes at the same instants and the clock spreads work
// over all shards' workers. Admission decisions (429/503), queued 504
// drops, batch count and per-tenant outcome counts are therefore a
// pure function of (trace, options) — replaying the same trace twice
// produces identical Canonical logs — while the task payloads still
// execute for real on the runtime shards. Host-wall quantities
// (measured energy, batch wall times) remain nondeterministic and are
// reported via the Measured* fields only.
func ReplayServe(tr *Trace, opt ServeReplay) (*Log, error) {
	if err := tr.Validate(); err != nil {
		return nil, err
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
		ev *Event
		p  *serve.Pending
	}
	var outstanding []waiting
	// settle collects the outcome of every job the last Flush ran and
	// returns their work. Flush drains the whole backlog, so none of
	// these Waits blocks.
	settle := func() (workS float64) {
		for _, w := range outstanding {
			st, res, _ := w.p.Wait()
			ran := 0
			if res != nil {
				ran = res.TasksRun
			}
			lg.count(w.ev.Tenant, st, ran)
			workS += float64(ran) * workOf(w.ev)
		}
		outstanding = outstanding[:0]
		return workS
	}
	admit := func(ev *Event) bool {
		vnow.Store(offsetNS(ev))
		p, rej := srv.Submit(requestOf(ev))
		if rej != nil {
			lg.count(ev.Tenant, rej.Status, 0)
			return false
		}
		outstanding = append(outstanding, waiting{ev, p})
		return true
	}
	form := func(t int64) float64 {
		vnow.Store(t)
		srv.Flush()
		return settle()
	}
	replayClock(tr, cfg.Workers*max(cfg.Shards, 1), admit, form)
	// Every admitted job has settled; a manual-flush Drain only stops
	// admission and returns at once.
	if err := srv.Drain(context.TODO()); err != nil {
		return nil, fmt.Errorf("traffic: drain after replay: %w", err)
	}

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
	Cores    int    // simulated cores (default 8)
	Policy   string // canonical policy id (default eewa)
	Seed     uint64 // victim-selection seed (default 1)
	MaxBatch int    // most tasks per batch (default 64, serve's default)
}

// simJob is a trace event queued on the simulated server, as serve's
// batching rule sees it. Its deadline runs from its own offset, as a
// live job's runs from admission.
type simJob Event

func (j *simJob) TaskCount() int    { return j.Count }
func (j *simJob) WorkHint() float64 { return j.WorkHintS }
func (j *simJob) ExpiredBy(now time.Time) bool {
	return j.DeadlineMS > 0 && now.UnixNano() > offsetNS((*Event)(j))+j.DeadlineMS*int64(time.Millisecond)
}

// ReplaySim replays tr through the simulator: replayClock decides when
// batches form, serve.NextBatch — the live batcher's own rule — decides
// what goes into them and in which order (FIFO up to MaxBatch tasks,
// expired jobs dropped 504, then heaviest work hint first), and the
// batches run through sched.Run. The
// entire log — outcome counts, batch count, modeled energy and
// makespan — is bit-exact for a given (trace, options): replaying
// twice, on any host, yields identical Canonical bytes. The simulator
// has no admission bounds, so 429/503 never appear here; compare
// against ReplayServe to see what backpressure subtracts.
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
	if opt.MaxBatch <= 0 {
		opt.MaxBatch = 64
	}

	lg := newLog("sim", tr)
	var batches []task.Batch
	var queue, batch, expired []*simJob
	id := 0
	admit := func(ev *Event) bool {
		queue = append(queue, (*simJob)(ev))
		return true
	}
	form := func(t int64) (workS float64) {
		for len(queue) > 0 {
			var popped int
			batch, expired, popped = serve.NextBatch(time.Unix(0, t), queue, opt.MaxBatch, batch[:0], expired[:0])
			queue = queue[popped:]
			for _, j := range expired {
				lg.count(j.Tenant, 504, 0)
			}
			if len(batch) == 0 {
				continue
			}
			var b task.Batch
			for _, j := range batch {
				for k := 0; k < j.Count; k++ {
					b.Tasks = append(b.Tasks, task.Task{ID: id, Class: j.Class, Work: workOf((*Event)(j))})
					id++
				}
				lg.count(j.Tenant, 200, j.Count)
				workS += float64(j.Count) * workOf((*Event)(j))
			}
			batches = append(batches, b)
		}
		return workS
	}
	replayClock(tr, opt.Cores, admit, form)
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
	res, err := sched.Run(cfg, w, pol, sched.Params{Seed: opt.Seed})
	if err != nil {
		return nil, nil, err
	}
	lg.EnergyJ = res.Energy
	lg.MakespanS = res.Makespan
	return lg, res, nil
}

// WallStats summarizes an open-loop wall-clock replay. Counts are jobs,
// not requests.
type WallStats struct {
	Submitted int64
	OK        int64
	Rejected  int64 // 429
	Dropped   int64 // 504
	Other     int64
	// Late counts events fired more than 100 ms behind their scheduled
	// time — the driver falling behind the trace.
	Late  int64
	WallS float64
}

// tally counts one job's status.
func (st *WallStats) tally(status int) {
	switch status {
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

// post sends jobs to h — one job alone to /v1/jobs, a group to
// /v1/jobs:batch — and tallies each job's status.
func (st *WallStats) post(h http.Handler, jobs []serve.JobRequest, grouped bool) {
	path, v := "/v1/jobs", any(jobs[0])
	if grouped {
		path, v = "/v1/jobs:batch", serve.BatchRequest{Jobs: jobs}
	}
	body, _ := json.Marshal(v)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	if !grouped {
		st.tally(w.Code)
		return
	}
	var bres serve.BatchResponse
	if err := json.Unmarshal(w.Body.Bytes(), &bres); err != nil || len(bres.Jobs) != len(jobs) {
		atomic.AddInt64(&st.Other, int64(len(jobs)))
		return
	}
	for i := range bres.Jobs {
		st.tally(bres.Jobs[i].Status)
	}
}

// ReplayWall drives tr against an HTTP handler open-loop in wall
// time: each event is due offset/speed seconds after start, regardless
// of completions, with the event's relative deadline translated to an
// absolute deadline_at on the same scaled timeline (so a driver that
// falls behind produces honest admission fast-fails instead of
// silently relaxed deadlines). speed > 1 compresses the trace, raising
// the offered load. With batch <= 1 each event is POSTed alone to
// /v1/jobs; a larger batch keeps trace order but sends every batch
// consecutive events as one POST /v1/jobs:batch, fired when its last
// member comes due, so no event fires early; lateness is still judged
// per event. Not deterministic — use ReplayServe for bit-exact outcome
// logs.
func ReplayWall(ctx context.Context, h http.Handler, tr *Trace, speed float64, batch int) (*WallStats, error) {
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	if speed <= 0 {
		speed = 1
	}
	batch = max(batch, 1)
	var st WallStats
	var wg sync.WaitGroup
	start := time.Now()
	at := func(offsetS float64) time.Time { return start.Add(time.Duration(offsetS / speed * 1e9)) }
	for base := 0; base < len(tr.Events); base += batch {
		group := tr.Events[base:min(base+batch, len(tr.Events))]
		if d := time.Until(at(group[len(group)-1].OffsetS)); d > 0 {
			select {
			case <-time.After(d):
			case <-ctx.Done():
				wg.Wait()
				st.WallS = time.Since(start).Seconds()
				return &st, ctx.Err()
			}
		}
		now := time.Now()
		jobs := make([]serve.JobRequest, len(group))
		for i := range group {
			ev := &group[i]
			if now.Sub(at(ev.OffsetS)) > 100*time.Millisecond {
				atomic.AddInt64(&st.Late, 1)
			}
			jobs[i] = requestOf(ev)
			if ev.DeadlineMS > 0 {
				jobs[i].DeadlineMS = 0
				jobs[i].DeadlineAtMS = at(ev.OffsetS + float64(ev.DeadlineMS)/1e3).UnixMilli()
			}
		}
		atomic.AddInt64(&st.Submitted, int64(len(jobs)))
		wg.Add(1)
		go func() {
			defer wg.Done()
			st.post(h, jobs, batch > 1)
		}()
	}
	wg.Wait()
	st.WallS = time.Since(start).Seconds()
	return &st, nil
}
