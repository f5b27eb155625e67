package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"adavp/internal/video"
)

// spanStats aggregates spans by name: call count, total duration, and self
// time (duration minus the children's durations).
type spanStats struct {
	count [numSpanNames]int
	total [numSpanNames]time.Duration
	self  [numSpanNames]time.Duration
}

func analyze(spans []span) spanStats {
	var st spanStats
	self := make([]int64, len(spans))
	for i, sp := range spans {
		self[i] += sp.end - sp.start
		if sp.parent >= 0 {
			self[sp.parent] -= sp.end - sp.start
		}
	}
	for i, sp := range spans {
		st.count[sp.name]++
		st.total[sp.name] += time.Duration(sp.end - sp.start)
		st.self[sp.name] += time.Duration(self[i])
	}
	return st
}

// meanMS is the mean duration of one named span in milliseconds.
func (st spanStats) meanMS(name int) float64 {
	if st.count[name] == 0 {
		return 0
	}
	return ms(st.total[name]) / float64(st.count[name])
}

// selfSum is the summed self time of every span.
func (st spanStats) selfSum() time.Duration {
	var d time.Duration
	for _, s := range st.self {
		d += s
	}
	return d
}

// report sets the per-layer metrics the spans give. Counts and busy time
// are divided by runs, the number of identical passes the spans cover;
// liveFeat is the LiveFeatures sum over the traced steps.
func (st spanStats) report(r *report, spans int, liveFeat int64, runs int) {
	per := func(n int) float64 { return float64(n) / float64(runs) }
	r.set("detect.calls", per(st.count[spanDetect]), st.count[spanDetect])
	r.set("detect.busy_s", st.total[spanDetect].Seconds()/float64(runs), st.count[spanDetect])
	r.set("detect.blob_ms", st.meanMS(spanBlob), st.count[spanBlob])
	r.set("imgproc.resize_ms", st.meanMS(spanResize), st.count[spanResize])
	r.set("imgproc.pyramid_ms", st.meanMS(spanPyramid), st.count[spanPyramid])
	r.set("features.shi_tomasi_ms", st.meanMS(spanShiTomasi), st.count[spanShiTomasi])
	r.set("flow.lk_ms", st.meanMS(spanLK), st.count[spanLK])
	r.set("track.inits", per(st.count[spanTrackInit]), st.count[spanTrackInit])
	r.set("track.steps", per(st.count[spanTrackStep]), st.count[spanTrackStep])
	live := 0.0
	if st.count[spanLK] > 0 {
		live = float64(liveFeat) / float64(st.count[spanLK])
	}
	r.set("track.features_live", live, st.count[spanLK])
	r.set("trace.spans", float64(spans)/float64(runs), spans)
}

// timeRenders times FrameWithPixels over up to limit of the consumed
// (stream, frame) pairs, spread evenly, and returns the mean in
// milliseconds and the sample count.
func timeRenders(videos []*video.Video, consumed map[[2]int32]bool, limit int) (float64, int) {
	keys := make([][2]int32, 0, len(consumed))
	for k := range consumed {
		keys = append(keys, k)
	}
	if len(keys) == 0 {
		return 0, 0
	}
	sort.Slice(keys, func(a, b int) bool {
		return keys[a][0] < keys[b][0] || keys[a][0] == keys[b][0] && keys[a][1] < keys[b][1]
	})
	step := max(len(keys)/limit, 1)
	var total time.Duration
	n := 0
	for k := 0; k < len(keys); k += step {
		t0 := time.Now()
		videos[keys[k][0]].FrameWithPixels(int(keys[k][1]))
		total += time.Since(t0)
		n++
	}
	return ms(total) / float64(n), n
}

// writeSpans writes a traced run's spans as CSV into the output directory.
func writeSpans(c config, spans []span) error {
	if err := os.MkdirAll(c.outDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(c.outDir, fmt.Sprintf("spans-%s-seed%d.csv", c.workload, c.seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "index,name,parent,stream,frame,start_ns,end_ns")
	for i, sp := range spans {
		fmt.Fprintf(w, "%d,%s,%d,%d,%d,%d,%d\n", i, spanNames[sp.name], sp.parent, sp.stream, sp.frame, sp.start, sp.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
