package rt

import (
	"sync"
	"sync/atomic"
	"time"

	"adavp/internal/core"
	"adavp/internal/obs"
	"adavp/internal/video"
)

// frameStore is the render-once frame store of one pixel-mode live run.
// Every consumer reaches pixels through it (pipeline.frame), at any
// pipeline depth, and it keeps three rules:
//
//   - Each frame index is rendered at most once per run. Rendering is
//     single-flight: a consumer asking for a frame that is already being
//     rendered waits for that render instead of starting its own.
//   - Frames are kept from a low-water mark upward. The tracker raises the
//     mark to its cycle's RefFrame when it starts a cycle, and to each frame
//     it steps, so the frame the detector ran on stays resident as the next
//     cycle's Init reference and everything the tracker has passed is freed.
//   - With a prefetch goroutine (depth > 1) only frames a consumer has
//     declared it will read are rendered ahead: first the detector's
//     predicted next fetch, then the tracker's plan, at most depth−1 frames
//     ahead of the step in progress and only those the tracker reaches, at
//     its last step's pace, before the detector's declared wake cancels the
//     cycle. At most depth prefetched frames are therefore in flight
//     (declared and not yet consumed).
//
// A rendered frame is a pure function of its index, so a wrong declaration
// only costs a render nobody reads: the consumer renders the right frame
// inline and the outputs do not change.
type frameStore struct {
	v     *video.Video
	depth int // prefetch bound; ≤ 1 runs no prefetch goroutine
	gen   *atomic.Uint64

	mu     sync.Mutex
	wake   *sync.Cond     // new demand or close: wakes the prefetcher
	slots  []*storedFrame // by frame index; nil below low and for frames nobody asked for
	low    int
	closed bool

	// Declared demand, read by the prefetcher.
	detNext   int           // detector's predicted next fetch, -1 for none
	detWake   time.Time     // when the detector makes it; zero while unknown
	plan      []int         // tracker's plan: offsets from planBase
	planBase  int           // first buffered frame of the planned cycle
	planGen   uint64        // detector generation the plan belongs to
	planStep  int           // plan position of the step in progress, -1 during Init
	stepStart time.Time     // when the tracker started Init or reached planStep
	initDur   time.Duration // the tracker's last Init-to-first-step time, 0 while unknown
	stepDur   time.Duration // its last step-to-step time, 0 while unknown

	// Audit counters, written under mu.
	renders     []uint8 // renders per frame index
	consumed    int     // distinct frames a consumer has read
	resident    int     // frames held at or above low
	maxResident int

	waiting     atomic.Bool
	builtWhile  atomic.Int64 // prefetch renders completed while waiting
	inflightG   *obs.Gauge
	prefetchedC *obs.Counter
}

// storedFrame is one store entry. f is written once, before done closes.
type storedFrame struct {
	done       chan struct{}
	f          core.Frame
	prefetched bool // rendered by the prefetch goroutine
	consumed   bool // read by a consumer
}

func newFrameStore(v *video.Video, depth int, gen *atomic.Uint64, reg *obs.Registry, labels []obs.Label) *frameStore {
	s := &frameStore{
		v:           v,
		depth:       depth,
		gen:         gen,
		slots:       make([]*storedFrame, v.NumFrames()),
		detNext:     -1,
		renders:     make([]uint8, v.NumFrames()),
		inflightG:   reg.Gauge(obs.MetricFramesInFlightWaiting, labels...),
		prefetchedC: reg.Counter(obs.MetricPrefetchedWaiting, labels...),
	}
	s.wake = sync.NewCond(&s.mu)
	return s
}

// prefetching reports whether a prefetch goroutine serves declared demand.
func (s *frameStore) prefetching() bool { return s != nil && s.depth > 1 }

// get returns frame i, rendering it on this goroutine if nobody has, or
// waiting for the render already under way.
func (s *frameStore) get(i int) core.Frame {
	s.mu.Lock()
	sf := s.slots[i]
	if sf == nil {
		sf = s.claimLocked(i)
		sf.consumed = true
		s.consumed++
		s.mu.Unlock()
		s.fill(sf, i)
		return sf.f
	}
	if !sf.consumed {
		sf.consumed = true
		s.consumed++
	}
	s.mu.Unlock()
	<-sf.done
	return sf.f
}

// claimLocked registers the render of frame i, which the caller must then
// fill. A frame below the low-water mark is rendered but not kept.
func (s *frameStore) claimLocked(i int) *storedFrame {
	sf := &storedFrame{done: make(chan struct{})}
	s.renders[i]++
	if i >= s.low {
		s.slots[i] = sf
		s.resident++
		s.maxResident = max(s.maxResident, s.resident)
	}
	return sf
}

// fill renders frame i into sf and releases everyone waiting for it.
func (s *frameStore) fill(sf *storedFrame, i int) {
	sf.f = s.v.FrameWithPixels(i)
	close(sf.done)
}

// releaseLocked raises the low-water mark to i, dropping every frame below
// it.
func (s *frameStore) releaseLocked(i int) {
	for ; s.low < i; s.low++ {
		if s.slots[s.low] != nil {
			s.slots[s.low] = nil
			s.resident--
		}
	}
}

// startCycle is the tracker starting the cycle of detector generation gen
// on reference frame ref: frames below ref are released, and plan (offsets
// from ref+1, stepped in order after Init; nil when nothing is buffered)
// becomes the declared tracker demand.
func (s *frameStore) startCycle(gen uint64, ref int, plan []int) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.releaseLocked(ref)
	s.plan, s.planBase, s.planGen, s.planStep = plan, ref+1, gen, -1
	s.stepStart = time.Now()
	s.mu.Unlock()
	s.signal()
}

// stepping is the tracker reaching plan step k, on frame i: frames before i
// are released, the prefetch window moves on and the pace of the tracker's
// Init or previous step is measured.
func (s *frameStore) stepping(k, i int) {
	if s == nil {
		return
	}
	now := time.Now()
	s.mu.Lock()
	s.releaseLocked(i)
	if s.planStep == k-1 {
		if k == 0 {
			s.initDur = now.Sub(s.stepStart)
		} else {
			s.stepDur = now.Sub(s.stepStart)
		}
	}
	s.planStep, s.stepStart = k, now
	s.mu.Unlock()
	s.signal()
}

// expectDetect declares the detector's predicted next fetch (-1: none),
// made when it wakes at wake.
func (s *frameStore) expectDetect(i int, wake time.Time) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.detNext, s.detWake = i, wake
	s.mu.Unlock()
	s.signal()
}

// signal wakes the prefetch goroutine, if the store runs one.
func (s *frameStore) signal() {
	if s.prefetching() {
		s.wake.Signal()
	}
}

// nextDemandLocked returns the next declared, unrendered frame: the
// detector's prediction first, then the live plan's window. -1 if none.
func (s *frameStore) nextDemandLocked() int {
	if d := s.detNext; d >= s.low && s.slots[d] == nil {
		return d
	}
	if s.planGen != s.gen.Load() {
		return -1 // the detector has moved on: the tracker will not step this plan
	}
	for k := s.planStep + 1; k < len(s.plan) && k < s.planStep+s.depth; k++ {
		if !s.detWake.IsZero() && s.reachLocked(k).After(s.detWake) {
			return -1 // the detector's next fetch cancels the cycle first
		}
		if i := s.planBase + s.plan[k]; i >= s.low && s.slots[i] == nil {
			return i
		}
	}
	return -1
}

// reachLocked estimates when the tracker reaches plan step k > planStep, at
// the pace of its last Init and steps.
func (s *frameStore) reachLocked(k int) time.Time {
	cur := s.stepDur
	if s.planStep < 0 {
		cur = s.initDur
	}
	return s.stepStart.Add(cur + time.Duration(k-s.planStep-1)*s.stepDur)
}

// inflightLocked counts prefetched frames a consumer has declared and not
// yet read. The declared windows hold at most depth frames.
func (s *frameStore) inflightLocked() int {
	n := 0
	banked := func(i int) {
		if i >= s.low {
			if sf := s.slots[i]; sf != nil && sf.prefetched && !sf.consumed {
				n++
			}
		}
	}
	if s.detNext >= 0 {
		banked(s.detNext)
	}
	for k := s.planStep + 1; k < len(s.plan) && k < s.planStep+s.depth; k++ {
		if i := s.planBase + s.plan[k]; i != s.detNext {
			banked(i)
		}
	}
	return n
}

// prefetch is the store's prefetch goroutine: it renders declared frames
// until the store closes.
//
//adavp:stage prefetch
func (s *frameStore) prefetch() {
	s.mu.Lock()
	for {
		i := s.nextDemandLocked()
		for i < 0 && !s.closed {
			s.wake.Wait()
			i = s.nextDemandLocked()
		}
		if s.closed {
			s.mu.Unlock()
			return
		}
		sf := s.claimLocked(i)
		sf.prefetched = true
		s.mu.Unlock()
		s.fill(sf, i)
		if s.waiting.Load() {
			// This render landed while the stream was queueing for a
			// detector slot: banked work, the point of the stage.
			s.builtWhile.Add(1)
			s.prefetchedC.Inc()
			s.mu.Lock()
			n := s.inflightLocked()
			s.mu.Unlock()
			s.inflightG.Set(float64(n))
		}
		s.mu.Lock()
	}
}

// close stops the prefetch goroutine once its current render is done.
func (s *frameStore) close() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.wake.Broadcast()
}

// setWaiting brackets the detector loop's slot acquisition, which ends its
// declared wait for the next fetch; leaving the window resets the in-flight
// gauge (the banked frames are being consumed).
func (s *frameStore) setWaiting(w bool) {
	if !s.prefetching() {
		return
	}
	s.mu.Lock()
	if w {
		// The fetch waits for a slot grant: its time is unknown, and the
		// tracker keeps stepping until then.
		s.detWake = time.Time{}
	} else {
		// The detector fetches now: its declared frame is read right away
		// or was mispredicted.
		s.detNext = -1
	}
	s.mu.Unlock()
	s.waiting.Store(w)
	if !w {
		s.inflightG.Set(0)
	}
}
