package main

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"adavp/internal/core"
	"adavp/internal/detect"
	"adavp/internal/imgproc"
	"adavp/internal/track"
)

// The program is measured from outside: every hook below wraps one of the
// injectable seams (detect.Detector, track.Tracker, the NewTracker factory)
// and times calls into the layer's public functions. Two kinds exist:
//
//   - result hooks (untraced runs): forward the call unchanged and store the
//     call's return time per frame in memory allocated before the run;
//   - traced wrappers (traced runs): split the call into the public stages it
//     is made of (PrepareInput/DetectPrepared, Pyramid.Rebuild plus
//     InitWithPyramid/StepWithPyramid) and record one span per stage.
//
// Both must leave the program's outputs byte-identical; main_test.go and
// every offline-pixel run check that.

// streamHooks holds one stream's result-hook records. Times are nanoseconds
// since the run's base instant, stored +1 so that zero means "never".
type streamHooks struct {
	base    time.Time
	detRet  []atomic.Int64 // last Detect return per frame
	stepRet []atomic.Int64 // last Step return per frame
	calls   atomic.Int64   // Detect calls
}

func newStreamHooks(frames int) *streamHooks {
	return &streamHooks{detRet: make([]atomic.Int64, frames), stepRet: make([]atomic.Int64, frames)}
}

// since returns ns since base plus one, the stored form of a time.
func (h *streamHooks) since() int64 {
	//adavp:detrand-ok benchmark hook: the time goes to the report, never back into the pipeline
	return int64(time.Since(h.base)) + 1
}

func (h *streamHooks) noteDetect(frame int) {
	if frame >= 0 && frame < len(h.detRet) {
		h.detRet[frame].Store(h.since())
	}
	h.calls.Add(1)
}

// hookDetector is the result hook around a detector. It forwards the
// watchdog's context, so an abandoned call behaves exactly as unwrapped.
type hookDetector struct {
	inner detect.Detector
	h     *streamHooks
}

func (d *hookDetector) Detect(f core.Frame, s core.Setting) []core.Detection {
	return d.DetectCtx(context.Background(), f, s)
}

func (d *hookDetector) DetectCtx(ctx context.Context, f core.Frame, s core.Setting) []core.Detection {
	out := detect.DetectWith(ctx, d.inner, f, s)
	d.h.noteDetect(f.Index)
	return out
}

// hookTracker is the result hook around a tracker.
type hookTracker struct {
	inner track.Tracker
	h     *streamHooks
}

func (t *hookTracker) Init(ref core.Frame, dets []core.Detection) int {
	return t.inner.Init(ref, dets)
}

func (t *hookTracker) Step(next core.Frame) ([]core.Detection, float64) {
	dets, vel := t.inner.Step(next)
	if i := next.Index; i >= 0 && i < len(t.h.stepRet) {
		t.h.stepRet[i].Store(t.h.since())
	}
	return dets, vel
}

// Span names. The outer spans (detect, track.init, track.step) are the
// calls the pipeline makes; the others are their public stages.
const (
	spanDetect = iota
	spanResize
	spanBlob
	spanTrackInit
	spanTrackStep
	spanPyramid
	spanShiTomasi
	spanLK
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"detect", "imgproc.resize", "detect.blob",
	"track.init", "track.step", "imgproc.pyramid", "features.shi_tomasi", "flow.lk",
}

// span is one timed call: name, start, end (ns since the tracer's base),
// parent span index (-1 for none), stream and frame.
type span struct {
	start, end    int64
	parent        int32
	stream, frame int32
	name          uint8
}

// tracer keeps every span of a traced run in memory allocated up front;
// spans beyond its capacity are counted as dropped, which fails the run.
type tracer struct {
	base    time.Time
	spans   []span
	n       atomic.Int64
	dropped atomic.Int64
	// liveFeat sums PixelTracker.LiveFeatures after each traced Step.
	liveFeat atomic.Int64
}

func newTracer(capacity int) *tracer {
	return &tracer{spans: make([]span, capacity)}
}

func (t *tracer) now() int64 {
	//adavp:detrand-ok benchmark span: the time goes to the report, never back into the pipeline
	return int64(time.Since(t.base))
}

// begin opens a span and returns its index (-1 when the buffer is full).
func (t *tracer) begin(name int, parent int32, stream, frame int) int32 {
	i := t.n.Add(1) - 1
	if i >= int64(len(t.spans)) {
		t.dropped.Add(1)
		return -1
	}
	t.spans[i] = span{start: t.now(), parent: parent, stream: int32(stream), frame: int32(frame), name: uint8(name)}
	return int32(i)
}

func (t *tracer) end(i int32) {
	if i >= 0 {
		t.spans[i].end = t.now()
	}
}

// recorded returns the spans written so far.
func (t *tracer) recorded() []span {
	n := t.n.Load()
	if n > int64(len(t.spans)) {
		n = int64(len(t.spans))
	}
	return t.spans[:n]
}

// tracedDetector spans a Detect call. Around the blob detector it splits the
// call into its two public stages, PrepareInput (the setting resize) and
// DetectPrepared, which give detections bitwise-equal to Detect.
type tracedDetector struct {
	inner  detect.Detector
	blob   *detect.BlobDetector // non-nil when inner is the blob detector
	tr     *tracer
	stream int
	// prepared rasters are per call: a watchdog-abandoned call may still be
	// running when its retry starts.
	prepared sync.Pool
}

func newTracedDetector(inner detect.Detector, tr *tracer, stream int) *tracedDetector {
	d := &tracedDetector{inner: inner, tr: tr, stream: stream}
	d.blob, _ = inner.(*detect.BlobDetector)
	d.prepared.New = func() any { return new(imgproc.Gray) }
	return d
}

func (d *tracedDetector) Detect(f core.Frame, s core.Setting) []core.Detection {
	return d.DetectCtx(context.Background(), f, s)
}

func (d *tracedDetector) DetectCtx(ctx context.Context, f core.Frame, s core.Setting) []core.Detection {
	outer := d.tr.begin(spanDetect, -1, d.stream, f.Index)
	defer d.tr.end(outer)
	if d.blob == nil {
		return detect.DetectWith(ctx, d.inner, f, s)
	}
	g := d.prepared.Get().(*imgproc.Gray)
	sp := d.tr.begin(spanResize, outer, d.stream, f.Index)
	ok := d.blob.PrepareInput(f, s, g)
	d.tr.end(sp)
	var prep *imgproc.Gray
	if ok {
		prep = g
	}
	sp = d.tr.begin(spanBlob, outer, d.stream, f.Index)
	out := d.blob.DetectPrepared(f, s, prep)
	d.tr.end(sp)
	d.prepared.Put(g)
	return out
}

// tracedTracker spans Init and Step. Around the pixel tracker it builds each
// frame's pyramid itself (Pyramid.Rebuild) and hands it over through
// InitWithPyramid / StepWithPyramid, so pyramid building, Shi–Tomasi feature
// extraction and Lucas–Kanade flow are timed separately.
type tracedTracker struct {
	inner  track.Tracker
	pixel  *track.PixelTracker // non-nil when inner is the pixel tracker
	tr     *tracer
	stream int

	free    []*imgproc.Pyramid // pyramids the tracker handed back
	scratch imgproc.Scratch
}

func newTracedTracker(inner track.Tracker, tr *tracer, stream int) *tracedTracker {
	t := &tracedTracker{inner: inner, tr: tr, stream: stream}
	t.pixel, _ = inner.(*track.PixelTracker)
	return t
}

func (t *tracedTracker) take() *imgproc.Pyramid {
	if n := len(t.free); n > 0 {
		p := t.free[n-1]
		t.free = t.free[:n-1]
		return p
	}
	return &imgproc.Pyramid{}
}

func (t *tracedTracker) give(p *imgproc.Pyramid) {
	if p != nil {
		t.free = append(t.free, p)
	}
}

// pyramid builds frame f's pyramid under a child span of parent.
func (t *tracedTracker) pyramid(f core.Frame, parent int32) *imgproc.Pyramid {
	p := t.take()
	if f.Pixels == nil {
		return p
	}
	sp := t.tr.begin(spanPyramid, parent, t.stream, f.Index)
	p.Rebuild(f.Pixels, t.pixel.PyramidLevels, &t.scratch)
	t.tr.end(sp)
	return p
}

func (t *tracedTracker) Init(ref core.Frame, dets []core.Detection) int {
	outer := t.tr.begin(spanTrackInit, -1, t.stream, ref.Index)
	defer t.tr.end(outer)
	if t.pixel == nil {
		return t.inner.Init(ref, dets)
	}
	pyr := t.pyramid(ref, outer)
	sp := t.tr.begin(spanShiTomasi, outer, t.stream, ref.Index)
	n, released := t.pixel.InitWithPyramid(ref, dets, pyr)
	t.tr.end(sp)
	t.give(released)
	return n
}

func (t *tracedTracker) Step(next core.Frame) ([]core.Detection, float64) {
	outer := t.tr.begin(spanTrackStep, -1, t.stream, next.Index)
	defer t.tr.end(outer)
	if t.pixel == nil {
		return t.inner.Step(next)
	}
	pyr := t.pyramid(next, outer)
	sp := t.tr.begin(spanLK, outer, t.stream, next.Index)
	dets, vel, released := t.pixel.StepWithPyramid(next, pyr)
	t.tr.end(sp)
	t.give(released)
	t.tr.liveFeat.Add(int64(t.pixel.LiveFeatures()))
	return dets, vel
}
