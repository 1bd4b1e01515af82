package serve

import (
	"fmt"
	"math"
	"slices"
	"sync/atomic"
	"time"

	"repro/internal/kernels"
	"repro/internal/rt"
)

// JobRequest is the wire format of POST /v1/jobs. A job is Count tasks
// of the named kernel function over a deterministic corpus; the task
// class seen by the profiler (and therefore by EEWA's CC table) is the
// function name.
type JobRequest struct {
	// Tenant scopes the admission queue; empty means "default".
	Tenant string `json:"tenant"`
	// Func is the kernel to run — one of Funcs().
	Func string `json:"func"`
	// SizeBytes is the corpus size per task (default 4096, max 1 MiB).
	SizeBytes int `json:"size_bytes"`
	// Count is the number of tasks in the job (default 1; a job must
	// fit in one batch, so Count ≤ the server's MaxBatch).
	Count int `json:"count"`
	// Seed makes the corpus deterministic (task i uses Seed+i).
	Seed uint64 `json:"seed"`
	// DeadlineMS, when > 0, bounds the job's total latency: if it
	// expires while the job is queued the job is dropped unstarted
	// (504); tasks not yet started when it expires mid-batch are
	// withdrawn through the runtime's cancellation hook.
	DeadlineMS int64 `json:"deadline_ms"`
	// DeadlineAtMS, when > 0, is an absolute deadline in epoch
	// milliseconds (mutually exclusive with DeadlineMS). Client-side
	// timestamping and trace replay use it; a job whose absolute
	// deadline has already passed at admission is fast-failed with 504
	// before it can occupy a queue or batch slot.
	DeadlineAtMS int64 `json:"deadline_at_ms,omitempty"`
	// WorkHintS is an optional per-task workload hint in seconds at
	// F0 (the paper's offline-profiling spirit): the batcher packs
	// heavier-hinted jobs first. Zero is fine.
	WorkHintS float64 `json:"work_hint_s"`
}

// JobResult is the success (and partial-timeout) response body.
type JobResult struct {
	Job      uint64 `json:"job"`
	Tenant   string `json:"tenant"`
	Func     string `json:"func"`
	Tasks    int    `json:"tasks"`
	TasksRun int    `json:"tasks_run"`
	Batch    int    `json:"batch"`
	// Shard is the runtime shard the routing tier placed the job on.
	// Nil (omitted) in single-shard clusters, so those responses stay
	// byte-identical to the pre-router wire format; a pointer, not a
	// bare int, so shard 0 still serializes in a real cluster.
	Shard   *int    `json:"shard,omitempty"`
	QueueMS float64 `json:"queue_ms"`
	BatchMS float64 `json:"batch_ms"`
	// EnergyJ is the whole batch's modeled energy (the iteration this
	// job rode in); EnergyAttrJ is the slice attributed to this job:
	// its class's busy-state energy, split pro rata by executed tasks
	// among the batch's jobs of the same class.
	EnergyJ     float64 `json:"energy_j"`
	EnergyAttrJ float64 `json:"energy_attr_j"`
	Steals      int     `json:"steals"`
	Policy      string  `json:"policy"`
}

// outcome is what the batcher reports back to the waiting HTTP
// handler.
type outcome struct {
	status int
	err    string
	// res points into the job's own result buffer (j.res) — valid only
	// while the receiver holds a reference on the job. Callers that
	// outlive their reference (Pending.Wait) must copy it out before
	// releasing.
	res *JobResult
}

// taskSlot binds one task of a job to its kernel and corpus slice. The
// slot lives inside the pooled job and is reused across requests: the
// two method values handed to the runtime (run, cancelled) are
// allocated once when the slot array grows and never again, which is
// what keeps the per-task closure allocations of the old builder off
// the steady-state ingest path.
type taskSlot struct {
	j    *job
	kfn  func([]byte) // static kernel over data
	data []byte       // this task's slice of the job's corpus slab
}

// spanBase is the origin of the payload stamps (firstStart, lastEnd):
// they are monotonic nanoseconds since it, like the service clock's
// readings they are subtracted from, so a stepped wall clock cannot open
// a gap in a job's span account (a 1.1 ms step did, on the benchmark's
// traced serve-batch run).
var spanBase = time.Now()

// spanNanos places a service-clock reading on the payload stamps' axis.
func spanNanos(t time.Time) int64 { return int64(t.Sub(spanBase)) }

func (ts *taskSlot) run() {
	j := ts.j
	if !j.srv.stamps {
		ts.kfn(ts.data)
		j.ran.Add(1)
		return
	}
	j.firstStart.CompareAndSwap(0, int64(time.Since(spanBase)))
	ts.kfn(ts.data)
	j.ran.Add(1)
	end := int64(time.Since(spanBase))
	for {
		old := j.lastEnd.Load()
		if end <= old || j.lastEnd.CompareAndSwap(old, end) {
			break
		}
	}
}

// cancelled withdraws the task if the handler cancelled the job or its
// deadline expired after the batch formed but before this task
// started. Reads the service clock, so a frozen virtual clock (trace
// replay) makes mid-batch expiry deterministic — but only for a job
// that has a deadline: a task that cannot expire costs no clock read.
func (ts *taskSlot) cancelled() bool {
	j := ts.j
	return j.cancelled.Load() || (!j.deadline.IsZero() && j.srv.now().After(j.deadline))
}

// job is one admitted submission. Jobs are pooled (Server.jobPool) and
// reference-counted: the submitter holds one reference, the shard that
// admits it takes another, and the job returns to the pool when the
// last reference is released.
type job struct {
	srv      *Server
	id       uint64
	tenant   string
	req      JobRequest
	tasks    []rt.Task  // parallel to slots; reused across requests
	slots    []taskSlot // task state; method values allocated on growth only
	corpus   []byte     // one slab, Count×SizeBytes, sliced per task
	shard    int        // set at admission by the shard that accepted it
	deadline time.Time  // zero = none
	enqueued time.Time
	started  time.Time
	res      JobResult // result buffer the batcher fills (outcome.res points here)

	refs      atomic.Int32
	ran       atomic.Int64 // payloads actually executed
	cancelled atomic.Bool  // set by the handler on deadline/disconnect
	done      chan outcome // buffered; exactly one send, by the batcher

	// Span edges inside the batch, recorded by the task closures
	// (nanoseconds since spanBase; 0 = no payload ran). With enqueued and started above they
	// delimit the request span's phases:
	//
	//	admission ──queue──▶ batch formation ──batch wait──▶ first
	//	payload ──execute──▶ last payload ──▶ complete
	firstStart atomic.Int64
	lastEnd    atomic.Int64
}

// TaskCount, WorkHint and ExpiredBy are the job as the batching rule
// (NextBatch) sees it.
func (j *job) TaskCount() int    { return len(j.tasks) }
func (j *job) WorkHint() float64 { return j.req.WorkHintS }
func (j *job) ExpiredBy(now time.Time) bool {
	return j.cancelled.Load() || (!j.deadline.IsZero() && now.After(j.deadline))
}

// finish delivers the batcher's outcome. The handler may have stopped
// listening (its own deadline fired first); the buffered channel makes
// the send unconditional and non-blocking.
func (j *job) finish(o outcome) {
	j.done <- o
}

// retain takes an additional reference (admission).
func (j *job) retain() { j.refs.Add(1) }

// release drops one reference; the last one resets the job and puts it
// back in the server pool. Task/slot/corpus capacity is kept so a warm
// pool serves steady-state traffic with zero per-job allocations.
func (j *job) release() {
	if j.refs.Add(-1) != 0 {
		return
	}
	j.id, j.shard = 0, 0
	j.tenant = ""
	j.req = JobRequest{}
	j.deadline, j.enqueued, j.started = time.Time{}, time.Time{}, time.Time{}
	j.res = JobResult{}
	j.ran.Store(0)
	j.cancelled.Store(false)
	j.firstStart.Store(0)
	j.lastEnd.Store(0)
	j.srv.jobPool.Put(j)
}

// getJob takes a job from the pool (or builds a fresh one) with one
// reference held by the caller.
func (s *Server) getJob() *job {
	j, _ := s.jobPool.Get().(*job)
	if j == nil {
		j = &job{srv: s, done: make(chan outcome, 1)}
	}
	// A waiter that gave up (handler deadline, disconnect) may have left
	// the batcher's outcome undelivered in the buffer; drain it so the
	// next waiter does not read a stale result.
	select {
	case <-j.done:
	default:
	}
	j.refs.Store(1)
	return j
}

// Funcs returns the servable kernel names.
func Funcs() []string {
	return []string{"sha1", "md5", "lzw", "bwc", "bzip2", "dmc", "je"}
}

// maxSizeBytes bounds the per-task corpus so a single request cannot
// pin arbitrary memory.
const maxSizeBytes = 1 << 20

// kernelSpec is a kernel over the job's corpus slab: run executes over
// one task's slice of it, fill writes that task's deterministic input
// in place. Both are package-level funcs, so binding one to a task
// allocates nothing.
type kernelSpec struct {
	run  func([]byte)
	fill func(dst []byte, seed uint64)
	// stride maps the request's size_bytes to the task's slice length;
	// nil means size_bytes itself.
	stride func(sizeBytes int) int
}

// onScratch adapts a kernels.Scratch method to a run func: the payload
// takes a pooled scratch, so a warm worker compresses without
// allocating, and the output dies with the call.
func onScratch(kernel func(*kernels.Scratch, []byte) []byte) func([]byte) {
	return func(data []byte) {
		s := kernels.GetScratch()
		kernels.KeepAlive(kernel(s, data))
		kernels.PutScratch(s)
	}
}

var kernelSpecs = map[string]kernelSpec{
	"sha1": {
		run:  func(data []byte) { d := kernels.SHA1(data); kernels.KeepAlive(d[:]) },
		fill: kernels.TextCorpusInto,
	},
	"md5": {
		run:  func(data []byte) { d := kernels.MD5(data); kernels.KeepAlive(d[:]) },
		fill: kernels.TextCorpusInto,
	},
	"lzw": {
		run:  onScratch((*kernels.Scratch).LZWCompress),
		fill: kernels.TextCorpusInto,
	},
	"bwc": {
		run:  func(data []byte) { kernels.KeepAlive(kernels.BWC(data)) },
		fill: kernels.TextCorpusInto,
	},
	"bzip2": {
		run: func(data []byte) {
			out, err := kernels.Bzip2Like(data, 16<<10)
			if err == nil {
				kernels.KeepAlive(out)
			}
		},
		fill: kernels.TextCorpusInto,
	},
	"dmc": {
		run:  onScratch((*kernels.Scratch).DMCCompress),
		fill: kernels.StructuredCorpusInto,
	},
	// je's input is a square image: size_bytes is its pixel count, rounded
	// down to a square of side 16…512, and the task's slice is its raster.
	"je": {
		run: onScratch(func(s *kernels.Scratch, pix []byte) []byte {
			dim := jeDim(len(pix))
			out, _ := s.EncodeJPEGish(&kernels.Image{W: dim, H: dim, Pix: pix}, 75)
			return out
		}),
		fill: func(pix []byte, seed uint64) {
			dim := jeDim(len(pix))
			kernels.GradientImageInto(pix, seed, dim, dim)
		},
		stride: func(sizeBytes int) int { dim := jeDim(sizeBytes); return dim * dim },
	},
}

// jeDim is the side of the square image a je task of size pixels
// encodes. It maps dim² back to dim, so run and fill recover the side
// from the slice stride handed out.
func jeDim(size int) int {
	return min(max(int(math.Sqrt(float64(size))), 16), 512)
}

// grow readies the job's slot and task arrays for count tasks. On
// growth every slot's two method values are (re)bound once; at steady
// state the arrays are just resliced.
func (j *job) grow(count int) {
	if cap(j.slots) >= count {
		j.slots = j.slots[:count]
		j.tasks = j.tasks[:count]
		return
	}
	j.slots = make([]taskSlot, count)
	j.tasks = make([]rt.Task, count)
	for i := range j.slots {
		ts := &j.slots[i]
		ts.j = j
		j.tasks[i] = rt.Task{Run: ts.run, Cancelled: ts.cancelled}
	}
}

// newJob validates req and takes a pooled job for it: shape errors,
// the deadline, the job id — nothing that costs time. The job has no
// tasks yet; route builds them (fill) once it knows the job will not be
// refused on sight. The returned error is a client error (HTTP 400).
func (s *Server) newJob(req JobRequest) (*job, error) {
	if req.Tenant == "" {
		req.Tenant = "default"
	}
	if req.SizeBytes == 0 {
		req.SizeBytes = 4096
	}
	if req.SizeBytes < 0 || req.SizeBytes > maxSizeBytes {
		return nil, fmt.Errorf("size_bytes %d outside (0, %d]", req.SizeBytes, maxSizeBytes)
	}
	if req.Count == 0 {
		req.Count = 1
	}
	if req.Count < 0 || req.Count > s.cfg.MaxBatch {
		return nil, fmt.Errorf("count %d outside (0, %d] (a job must fit in one batch)", req.Count, s.cfg.MaxBatch)
	}
	if req.Count > s.cfg.QueueDepth {
		return nil, fmt.Errorf("count %d exceeds the tenant queue depth %d", req.Count, s.cfg.QueueDepth)
	}
	if req.DeadlineMS < 0 || req.DeadlineAtMS < 0 || req.WorkHintS < 0 {
		return nil, fmt.Errorf("deadline_ms, deadline_at_ms and work_hint_s must be non-negative")
	}
	if req.DeadlineMS > 0 && req.DeadlineAtMS > 0 {
		return nil, fmt.Errorf("deadline_ms and deadline_at_ms are mutually exclusive")
	}
	if _, ok := kernelSpecs[req.Func]; !ok {
		// Every shape error above outranks an unknown function name.
		return nil, fmt.Errorf("unknown func %q (want one of %v)", req.Func, Funcs())
	}

	j := s.getJob()
	j.id = atomic.AddUint64(&s.jobSeq, 1)
	j.tenant = req.Tenant
	j.req = req
	if req.DeadlineMS > 0 {
		j.deadline = s.now().Add(time.Duration(req.DeadlineMS) * time.Millisecond)
	}
	if req.DeadlineAtMS > 0 {
		j.deadline = time.UnixMilli(req.DeadlineAtMS)
	}
	return j, nil
}

// fill builds the validated job's tasks: the corpus slab and its
// per-task slices. This is the expensive half of a submission (≈100 µs
// for 64 KiB of text corpus), so route runs it only after the checks
// that refuse a job on sight.
func (j *job) fill() {
	req := &j.req
	j.grow(req.Count)
	spec := kernelSpecs[req.Func]
	stride := req.SizeBytes
	if spec.stride != nil {
		stride = spec.stride(stride)
	}
	j.corpus = slices.Grow(j.corpus[:0], req.Count*stride)[:req.Count*stride]
	for i := 0; i < req.Count; i++ {
		ts := &j.slots[i]
		ts.data = j.corpus[i*stride : (i+1)*stride]
		spec.fill(ts.data, req.Seed+uint64(i))
		ts.kfn = spec.run
		j.tasks[i].Class = req.Func
	}
}
