package serve

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/check"
	"repro/internal/kernels"
	"repro/internal/obs"
)

// TestServedJobAllocBudget: one job through Submit / Flush / Wait on a
// warm eewa server allocates only what it hands back — the Pending and
// the JobResult copy Wait returns, and the BatchStats the runtime gives
// its hooks (five: three slices and a map) — whatever the kernel. The
// payloads, the plan, the batcher and the pooled job add nothing. Pinned
// at the 7 it measures, so that it can only fall.
func TestServedJobAllocBudget(t *testing.T) {
	if check.BuildEnabled || raceEnabled {
		t.Skip("eewa_check forces the invariant bookkeeping on; the race detector makes sync.Pool drop a quarter of its puts")
	}
	const budget = 7
	for _, req := range []JobRequest{
		{Func: "lzw", SizeBytes: 4096},
		{Func: "dmc", SizeBytes: 4096},
		{Func: "je", SizeBytes: 4096},
		{Func: "sha1", SizeBytes: 16 << 10, Count: 4},
	} {
		t.Run(req.Func, func(t *testing.T) {
			s, err := New(Config{Workers: 2, Policy: "eewa", ManualFlush: true, Obs: obs.NewRegistry()})
			if err != nil {
				t.Fatal(err)
			}
			defer drain(t, s)
			job := func() {
				p, rej := s.Submit(req)
				if rej != nil {
					t.Fatalf("rejected: %+v", rej)
				}
				s.Flush()
				if status, res, msg := p.Wait(); status != 200 || res.TasksRun != max(req.Count, 1) {
					t.Fatalf("status %d (%s), result %+v", status, msg, res)
				}
			}
			for i := 0; i < 5; i++ { // pools, slabs, scratch and the adjuster reach their size
				job()
			}
			if got := testing.AllocsPerRun(50, job); got > budget {
				t.Errorf("%.1f allocations per %s job, budget %d", got, req.Func, budget)
			}
		})
	}
}

// A payload takes its span stamps only when something reads them: the
// span histograms (Obs) or the span check. Without either, a job that
// ran leaves both stamps at 0.
func TestPayloadStampsOnlyWhenRead(t *testing.T) {
	for _, c := range []struct {
		name   string
		reg    *obs.Registry
		stamps bool
	}{
		{"unread", nil, check.BuildEnabled},
		{"obs", obs.NewRegistry(), true},
	} {
		t.Run(c.name, func(t *testing.T) {
			s, err := New(Config{Workers: 2, Policy: "cilk", ManualFlush: true, Obs: c.reg})
			if err != nil {
				t.Fatal(err)
			}
			defer drain(t, s)
			p, rej := s.Submit(JobRequest{Func: "sha1", SizeBytes: 256, Count: 3})
			if rej != nil {
				t.Fatalf("rejected: %+v", rej)
			}
			s.Flush()
			fs, le := p.j.firstStart.Load(), p.j.lastEnd.Load()
			if status, res, msg := p.Wait(); status != 200 || res.TasksRun != 3 {
				t.Fatalf("status %d (%s), result %+v", status, msg, res)
			}
			if stamped := fs > 0 && le >= fs; stamped != c.stamps || (!c.stamps && le != 0) {
				t.Errorf("stamps firstStart=%d lastEnd=%d, want stamped=%v", fs, le, c.stamps)
			}
		})
	}
}

// TestJEIsASlabKernel pins what the je entry of kernelSpecs must keep
// from the per-task closure it replaced: size_bytes is a pixel count
// rounded down to a square of side 16…512, task i encodes
// GradientImage(seed+i), and the payload's output is EncodeJPEGish's.
func TestJEIsASlabKernel(t *testing.T) {
	for size, dim := range map[int]int{1: 16, 255: 16, 256: 16, 4096: 64, 4100: 64, 10000: 100, 1 << 20: 512} {
		if got := jeDim(size); got != dim {
			t.Errorf("jeDim(%d) = %d, want %d", size, got, dim)
		}
		if got := kernelSpecs["je"].stride(size); got != dim*dim {
			t.Errorf("je stride(%d) = %d, want %d", size, got, dim*dim)
		}
	}
	s, err := New(Config{Workers: 1, Policy: "cilk", ManualFlush: true})
	if err != nil {
		t.Fatal(err)
	}
	defer drain(t, s)
	j, err := s.newJob(JobRequest{Func: "je", SizeBytes: 5000, Count: 3, Seed: 40})
	if err != nil {
		t.Fatal(err)
	}
	defer j.release()
	j.fill()
	for i := range j.slots {
		want := kernels.GradientImage(40+uint64(i), 70, 70)
		if !bytes.Equal(j.slots[i].data, want.Pix) {
			t.Errorf("task %d: corpus slice is not GradientImage(%d, 70, 70)", i, 40+i)
		}
		if j.tasks[i].Class != "je" {
			t.Errorf("task %d: class %q", i, j.tasks[i].Class)
		}
	}
	before := kernels.Sink.Load()
	j.slots[0].kfn(j.slots[0].data)
	out, err := kernels.EncodeJPEGish(kernels.GradientImage(40, 70, 70), 75)
	if err != nil {
		t.Fatal(err)
	}
	var acc uint64
	for _, x := range out {
		acc = acc*131 + uint64(x)
	}
	if got := kernels.Sink.Load() - before; got != acc {
		t.Errorf("je payload folded %#x into the sink, EncodeJPEGish's output folds to %#x", got, acc)
	}

	if _, err := s.newJob(JobRequest{Func: "jpeg"}); err == nil ||
		!strings.Contains(err.Error(), `unknown func "jpeg" (want one of [sha1 md5 lzw bwc bzip2 dmc je])`) {
		t.Errorf("unknown func error = %v", err)
	}
}
