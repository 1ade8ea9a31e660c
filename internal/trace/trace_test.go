package trace

import (
	"bytes"
	"strings"
	"testing"

	"rtmac/internal/medium"
	"rtmac/internal/sim"
)

func TestNewRecorderValidation(t *testing.T) {
	if _, err := NewRecorder(0); err == nil {
		t.Fatal("zero capacity accepted")
	}
}

func TestRecorderCapturesTransmissions(t *testing.T) {
	eng := sim.NewEngine(1)
	med, err := medium.New(eng, []float64{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	rec, err := NewRecorder(10)
	if err != nil {
		t.Fatal(err)
	}
	rec.Attach(med)
	med.Start(0, 100, false, nil)
	eng.ScheduleAt(150, func() { med.Start(1, 70, true, nil) })
	eng.Run()
	records := rec.Records()
	if len(records) != 2 || rec.Total() != 2 {
		t.Fatalf("got %d records (total %d), want 2", len(records), rec.Total())
	}
	if records[0].Link != 0 || records[0].Start != 0 || records[0].End != 100 ||
		records[0].Empty || records[0].Outcome != medium.Delivered {
		t.Fatalf("record 0 = %+v", records[0])
	}
	if records[1].Link != 1 || !records[1].Empty {
		t.Fatalf("record 1 = %+v", records[1])
	}
}

func TestRecorderRingEviction(t *testing.T) {
	rec, _ := NewRecorder(3)
	for i := 0; i < 7; i++ {
		rec.add(Record{Link: i})
	}
	records := rec.Records()
	if len(records) != 3 || rec.Total() != 7 {
		t.Fatalf("got %d records, total %d", len(records), rec.Total())
	}
	for i, want := range []int{4, 5, 6} {
		if records[i].Link != want {
			t.Fatalf("records = %+v, want links 4,5,6 in order", records)
		}
	}
}

func TestWriteLog(t *testing.T) {
	rec, _ := NewRecorder(4)
	rec.add(Record{Link: 2, Start: 10, End: 110, Outcome: medium.Delivered})
	rec.add(Record{Link: 3, Start: 120, End: 190, Empty: true, Outcome: medium.Delivered})
	var buf bytes.Buffer
	if err := rec.WriteLog(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"link  2", "link  3", "data", "empty", "delivered"} {
		if !strings.Contains(out, want) {
			t.Fatalf("log missing %q:\n%s", want, out)
		}
	}
}

func TestRenderTimeline(t *testing.T) {
	records := []Record{
		{Link: 0, Start: 0, End: 100, Outcome: medium.Delivered},
		{Link: 1, Start: 110, End: 210, Outcome: medium.Lost},
		{Link: 0, Start: 220, End: 290, Empty: true, Outcome: medium.Delivered},
		{Link: 2, Start: 300, End: 400, Outcome: medium.Collided},
	}
	var buf bytes.Buffer
	if err := RenderTimeline(&buf, records, 0, 400, 40); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"link  0", "link  1", "link  2", "D", "x", "e", "C", "legend"} {
		if !strings.Contains(out, want) {
			t.Fatalf("timeline missing %q:\n%s", want, out)
		}
	}
	// Lane 1 must contain 'x' but no 'D'.
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "link  1") && strings.Contains(line, "D") {
			t.Fatalf("lane 1 contains a delivery: %s", line)
		}
	}
}

func TestRenderTimelineValidation(t *testing.T) {
	var buf bytes.Buffer
	if err := RenderTimeline(&buf, nil, 0, 100, 40); err == nil {
		t.Fatal("no records accepted")
	}
	if err := RenderTimeline(&buf, []Record{{Link: 0}}, 100, 100, 40); err == nil {
		t.Fatal("empty window accepted")
	}
}

func TestRenderTimelineClipsOutOfWindow(t *testing.T) {
	records := []Record{
		{Link: 0, Start: 0, End: 50, Outcome: medium.Delivered},    // before window
		{Link: 0, Start: 500, End: 600, Outcome: medium.Delivered}, // after window
		{Link: 0, Start: 90, End: 210, Outcome: medium.Delivered},  // straddles start
	}
	var buf bytes.Buffer
	if err := RenderTimeline(&buf, records, 100, 400, 30); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "D") {
		t.Fatalf("straddling record not drawn:\n%s", out)
	}
}

func TestRenderTimelineEmptyRing(t *testing.T) {
	rec, err := NewRecorder(8)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := RenderTimeline(&buf, rec.Records(), 0, 100, 40); err == nil {
		t.Fatal("empty ring accepted")
	}
	if buf.Len() != 0 {
		t.Fatalf("empty ring still produced output:\n%s", buf.String())
	}
}

func TestRenderTimelineAllRecordsOutsideWindow(t *testing.T) {
	records := []Record{
		{Link: 0, Start: 0, End: 50, Outcome: medium.Delivered},
		{Link: 1, Start: 900, End: 1000, Outcome: medium.Lost},
	}
	var buf bytes.Buffer
	if err := RenderTimeline(&buf, records, 100, 800, 20); err != nil {
		t.Fatal(err)
	}
	// Lanes still render for every link seen, but carry only idle time.
	out := buf.String()
	lanes := 0
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, "link ") {
			continue
		}
		lanes++
		lane := line[strings.Index(line, "|")+1 : strings.LastIndex(line, "|")]
		if lane != strings.Repeat(".", 20) {
			t.Fatalf("out-of-window record drawn: %s", line)
		}
	}
	if lanes != 2 {
		t.Fatalf("rendered %d lanes, want 2:\n%s", lanes, out)
	}
}

func TestRenderTimelineNarrowWidthFallsBackToDefault(t *testing.T) {
	records := []Record{{Link: 0, Start: 0, End: 100, Outcome: medium.Delivered}}
	for _, width := range []int{-3, 0, 9} {
		var buf bytes.Buffer
		if err := RenderTimeline(&buf, records, 0, 400, width); err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(buf.String(), "\n") {
			if !strings.HasPrefix(line, "link  0") {
				continue
			}
			lane := line[strings.Index(line, "|")+1 : strings.LastIndex(line, "|")]
			if len(lane) != 80 {
				t.Fatalf("width %d: lane is %d columns, want the 80-column default", width, len(lane))
			}
		}
	}
}

func TestRenderTimelineSingleSlotWindow(t *testing.T) {
	// A window of a single time unit is the degenerate interval; every
	// overlapping record collapses onto the same columns without panicking.
	records := []Record{
		{Link: 0, Start: 0, End: 1, Outcome: medium.Delivered},
		{Link: 1, Start: 0, End: 5, Outcome: medium.Lost}, // clipped to the window
	}
	var buf bytes.Buffer
	if err := RenderTimeline(&buf, records, 0, 1, 10); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "D") || !strings.Contains(out, "x") {
		t.Fatalf("single-slot window lost records:\n%s", out)
	}
}

func TestRenderTimelineOneColumnRecord(t *testing.T) {
	// A zero-duration record at an interior instant maps to exactly one column.
	records := []Record{{Link: 0, Start: 100, End: 100, Outcome: medium.Delivered}}
	var buf bytes.Buffer
	if err := RenderTimeline(&buf, records, 0, 400, 40); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(buf.String(), "D"); n != 2 {
		// One in the lane, one in the legend.
		t.Fatalf("zero-duration record drew %d 'D' glyphs, want exactly 1 in the lane:\n%s",
			n-1, buf.String())
	}
}

func TestSnapshotArrivalOrderAcrossWrap(t *testing.T) {
	r, err := NewRecorder(3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 7; i++ {
		r.add(Record{Link: i, Start: sim.Time(i * 100), End: sim.Time(i*100 + 50)})
	}
	if r.Total() != 7 {
		t.Errorf("Total = %d, want 7", r.Total())
	}
	snap := r.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("Snapshot length = %d, want 3", len(snap))
	}
	for i, rec := range snap {
		if want := 4 + i; rec.Link != want {
			t.Errorf("snapshot[%d].Link = %d, want %d (arrival order)", i, rec.Link, want)
		}
	}
	// Records is defined as Snapshot.
	recs := r.Records()
	for i := range recs {
		if recs[i] != snap[i] {
			t.Errorf("Records()[%d] = %+v differs from Snapshot()[%d] = %+v", i, recs[i], i, snap[i])
		}
	}
}
