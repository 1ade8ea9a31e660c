package rundiff

import (
	"strconv"
	"strings"
	"testing"

	"rtmac/internal/journey"
)

const eventsHeader = `{"schema":"rtmac.events","schema_version":1}` + "\n"
const journeysHeader = `{"schema":"rtmac.journeys","schema_version":1}` + "\n"

func TestDiffEventsEqual(t *testing.T) {
	body := `{"k":0,"t":10,"link":-1,"kind":"interval","f":{"arrivals":3}}
{"k":1,"t":20,"link":2,"kind":"tx","f":{"dur":500}}
`
	for _, tc := range []struct{ name, a, b string }{
		{"both headered", eventsHeader + body, eventsHeader + body},
		{"both legacy", body, body},
		{"headered vs legacy", eventsHeader + body, body},
		{"empty", "", ""},
	} {
		d, err := DiffEvents(strings.NewReader(tc.a), strings.NewReader(tc.b), Options{})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !d.Equal {
			t.Errorf("%s: not equal: %+v", tc.name, d.Divergence)
		}
	}
}

func TestDiffEventsFirstDivergence(t *testing.T) {
	a := eventsHeader +
		`{"k":0,"t":10,"link":-1,"kind":"interval","f":{"arrivals":3,"served":3}}` + "\n" +
		`{"k":1,"t":20,"link":-1,"kind":"interval","f":{"arrivals":2,"served":2}}` + "\n" +
		`{"k":2,"t":30,"link":-1,"kind":"interval","f":{"arrivals":1,"served":1}}` + "\n"
	b := eventsHeader +
		`{"k":0,"t":10,"link":-1,"kind":"interval","f":{"arrivals":3,"served":3}}` + "\n" +
		`{"k":1,"t":20,"link":-1,"kind":"interval","f":{"arrivals":4,"served":2}}` + "\n" +
		`{"k":2,"t":30,"link":-1,"kind":"interval","f":{"arrivals":1,"served":1}}` + "\n"
	d, err := DiffEvents(strings.NewReader(a), strings.NewReader(b), Options{Window: 3})
	if err != nil {
		t.Fatal(err)
	}
	if d.Equal {
		t.Fatal("divergent streams reported equal")
	}
	div := d.Divergence
	if div.Index != 1 || d.Events != 1 {
		t.Errorf("divergence index %d (events %d), want 1", div.Index, d.Events)
	}
	if div.K() != 1 || div.Kind() != "interval" || div.Link() != -1 {
		t.Errorf("pointer k=%d link=%d kind=%s, want k=1 link=-1 kind=interval",
			div.K(), div.Link(), div.Kind())
	}
	// Header-aware editor line numbers: header is line 1, events follow.
	if div.LineA != 3 || div.LineB != 3 {
		t.Errorf("line numbers a=%d b=%d, want 3", div.LineA, div.LineB)
	}
	if len(div.Fields) != 1 || div.Fields[0].Name != "arrivals" ||
		div.Fields[0].A != 2 || div.Fields[0].B != 4 {
		t.Errorf("field deltas %+v, want arrivals 2->4", div.Fields)
	}
	if len(div.ContextA) != 1 || len(div.ContextB) != 1 {
		t.Errorf("context sizes %d/%d, want 1/1", len(div.ContextA), len(div.ContextB))
	}
}

func TestDiffEventsOneSideShorter(t *testing.T) {
	a := `{"k":0,"t":10,"link":-1,"kind":"debt","f":{"max":1}}` + "\n"
	b := a + `{"k":1,"t":20,"link":-1,"kind":"debt","f":{"max":2}}` + "\n"
	d, err := DiffEvents(strings.NewReader(a), strings.NewReader(b), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if d.Equal {
		t.Fatal("prefix stream reported equal to longer stream")
	}
	if got := d.Divergence.Missing(); got != "a" {
		t.Errorf("missing side %q, want a", got)
	}
	if d.Divergence.K() != 1 {
		t.Errorf("pointer k=%d, want 1 (from surviving side)", d.Divergence.K())
	}
}

func TestDiffEventsSchemaMismatch(t *testing.T) {
	future := `{"schema":"rtmac.events","schema_version":99}` + "\n"
	if _, err := DiffEvents(strings.NewReader(future), strings.NewReader(future), Options{}); err == nil {
		t.Fatal("future schema version accepted")
	}
	wrong := journeysHeader
	if _, err := DiffEvents(strings.NewReader(wrong), strings.NewReader(wrong), Options{}); err == nil {
		t.Fatal("journeys schema accepted as events")
	}
}

func TestDiffEventsWindowBound(t *testing.T) {
	var a, b strings.Builder
	a.WriteString(eventsHeader)
	b.WriteString(eventsHeader)
	for k := 0; k < 1000; k++ {
		line := `{"k":` + itoa(k) + `,"t":` + itoa(10*k) + `,"link":-1,"kind":"debt","f":{"max":1}}` + "\n"
		a.WriteString(line)
		if k == 999 {
			line = `{"k":999,"t":9990,"link":-1,"kind":"debt","f":{"max":7}}` + "\n"
		}
		b.WriteString(line)
	}
	d, err := DiffEvents(strings.NewReader(a.String()), strings.NewReader(b.String()), Options{Window: 4})
	if err != nil {
		t.Fatal(err)
	}
	if d.Equal || d.Divergence.Index != 999 {
		t.Fatalf("divergence at %v, want 999", d.Divergence)
	}
	if len(d.Divergence.ContextA) != 4 {
		t.Errorf("context window %d, want 4", len(d.Divergence.ContextA))
	}
}

func itoa(v int) string { return strconv.Itoa(v) }

func jline(seq, k, link int, cause string, delay int) string {
	s := `{"seq":` + itoa(seq) + `,"k":` + itoa(k) + `,"link":` + itoa(link) +
		`,"idx":0,"arrived":` + itoa(k*1000) + `,"deadline":` + itoa(k*1000+2000) +
		`,"cause":"` + cause + `"`
	if cause == journey.CauseDelivered {
		s += `,"done":` + itoa(k*1000+delay) + `,"delay":` + itoa(delay)
	}
	return s + "}\n"
}

func TestDiffJourneysEqualAndMismatch(t *testing.T) {
	a := journeysHeader +
		jline(0, 0, 0, journey.CauseDelivered, 300) +
		jline(1, 0, 1, journey.CauseExpiredInQueue, 0) +
		jline(2, 1, 0, journey.CauseDelivered, 400)
	d, err := DiffJourneys(strings.NewReader(a), strings.NewReader(a), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !d.Equal || d.Matched != 3 {
		t.Fatalf("identical streams: equal=%v matched=%d", d.Equal, d.Matched)
	}

	b := journeysHeader +
		jline(0, 0, 0, journey.CauseDelivered, 300) +
		jline(1, 0, 1, journey.CauseLostToCollision, 0) + // cause flips
		jline(2, 1, 0, journey.CauseDelivered, 400)
	d, err = DiffJourneys(strings.NewReader(a), strings.NewReader(b), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if d.Equal {
		t.Fatal("divergent journeys reported equal")
	}
	if d.First == nil || d.First.Seq != 1 {
		t.Fatalf("first mismatch %+v, want seq 1", d.First)
	}
	if len(d.First.Diffs) == 0 || !strings.Contains(d.First.Diffs[0], "cause") {
		t.Errorf("diffs %v, want cause change", d.First.Diffs)
	}
	contribs := d.Contributions()
	if len(contribs) != 2 {
		t.Fatalf("contributions %+v, want 2 (one per flipped cause)", contribs)
	}
	for _, c := range contribs {
		if c.Link != 1 {
			t.Errorf("contribution on link %d, want 1", c.Link)
		}
	}
}

func TestDiffJourneysSampledKeyJoin(t *testing.T) {
	// Side a sampled every journey; side b recorded only seq 0 and 2. The
	// key-join must pair 0 and 2 and count 1 as only-a, with no mismatch.
	a := jline(0, 0, 0, journey.CauseDelivered, 300) +
		jline(1, 0, 1, journey.CauseExpiredInQueue, 0) +
		jline(2, 1, 0, journey.CauseDelivered, 400)
	b := jline(0, 0, 0, journey.CauseDelivered, 300) +
		jline(2, 1, 0, journey.CauseDelivered, 400)
	d, err := DiffJourneys(strings.NewReader(a), strings.NewReader(b), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if d.Matched != 2 || d.OnlyA != 1 || d.OnlyB != 0 {
		t.Fatalf("join matched=%d onlyA=%d onlyB=%d, want 2/1/0", d.Matched, d.OnlyA, d.OnlyB)
	}
	if d.First != nil {
		t.Errorf("sampled join produced mismatch %+v", d.First)
	}
	if d.Equal {
		t.Error("unmatched journeys must not count as equal")
	}
	if d.TotalA.Total != 3 || d.TotalB.Total != 2 {
		t.Errorf("totals %d/%d, want 3/2", d.TotalA.Total, d.TotalB.Total)
	}
}

func TestDiffJourneysUnsortedRejected(t *testing.T) {
	bad := jline(2, 1, 0, journey.CauseDelivered, 400) +
		jline(1, 0, 1, journey.CauseExpiredInQueue, 0)
	if _, err := DiffJourneys(strings.NewReader(bad), strings.NewReader(bad), Options{}); err == nil {
		t.Fatal("unsorted journey stream accepted")
	}
}

func TestDiffCSV(t *testing.T) {
	a := "x,dbdp,dp\n0.1,0.02,0.04\n0.2,0.05,0.09\n"
	d, err := DiffCSV(strings.NewReader(a), strings.NewReader(a))
	if err != nil {
		t.Fatal(err)
	}
	if !d.Equal || d.Rows != 3 {
		t.Fatalf("equal CSVs: %+v", d)
	}
	b := "x,dbdp,dp\n0.1,0.02,0.04\n0.2,0.06,0.09\n"
	d, err = DiffCSV(strings.NewReader(a), strings.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	if d.Equal || d.Row != 3 || d.Col != 2 {
		t.Fatalf("divergence row=%d col=%d, want 3/2", d.Row, d.Col)
	}
	if d.FieldA != "0.05" || d.FieldB != "0.06" {
		t.Errorf("fields %q/%q, want 0.05/0.06", d.FieldA, d.FieldB)
	}
	// Shorter side.
	c := "x,dbdp,dp\n0.1,0.02,0.04\n"
	d, err = DiffCSV(strings.NewReader(a), strings.NewReader(c))
	if err != nil {
		t.Fatal(err)
	}
	if d.Equal || d.Row != 3 || d.RawB != "" {
		t.Fatalf("short side: %+v", d)
	}
}

func TestHeadersExcludedFromComparison(t *testing.T) {
	// A version-1 header on one side only must not show up as a divergence.
	body := `{"k":0,"t":10,"link":0,"kind":"tx","f":{"dur":500}}` + "\n"
	d, err := DiffEvents(strings.NewReader(eventsHeader+body), strings.NewReader(body), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !d.Equal {
		t.Fatalf("header counted as data: %+v", d.Divergence)
	}
	if d.Events != 1 {
		t.Errorf("events %d, want 1", d.Events)
	}
}

// TestHeaderAfterLeadingWhitespace: the header probe looks past leading
// whitespace and blank lines as telemetry.Decoder does, so an unsupported
// header there is refused and a supported one is not compared as data.
func TestHeaderAfterLeadingWhitespace(t *testing.T) {
	future := "\n" + `{"schema":"rtmac.events","schema_version":99}` + "\n" +
		`{"k":0,"t":10,"link":0,"kind":"tx","f":{"dur":500}}` + "\n"
	if d, err := DiffEvents(strings.NewReader(future), strings.NewReader(future), Options{}); err == nil {
		t.Errorf("future schema version after a blank line accepted: %+v", d)
	}
	futureJ := " \r\n" + `{"schema":"rtmac.journeys","schema_version":99}` + "\n" +
		jline(0, 0, 0, journey.CauseDelivered, 300)
	if _, err := DiffJourneys(strings.NewReader(futureJ), strings.NewReader(futureJ), Options{}); err == nil {
		t.Error("future journeys schema version after a blank line accepted")
	}

	body := `{"k":0,"t":10,"link":-1,"kind":"interval","f":{"arrivals":3}}` + "\n" +
		`{"k":1,"t":20,"link":2,"kind":"tx","f":{"dur":500}}` + "\n"
	d, err := DiffEvents(strings.NewReader(" "+eventsHeader+body), strings.NewReader(eventsHeader+body), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !d.Equal || d.Events != 2 {
		t.Fatalf("space before the header: equal=%v events=%d, divergence %+v", d.Equal, d.Events, d.Divergence)
	}

	// Skipped blank lines still count towards the editor line numbers.
	changed := strings.Replace(body, `"dur":500`, `"dur":600`, 1)
	d, err = DiffEvents(strings.NewReader("\n \n"+eventsHeader+body), strings.NewReader(eventsHeader+changed), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if d.Equal || d.Divergence.Index != 1 || d.Divergence.LineA != 5 || d.Divergence.LineB != 3 {
		t.Fatalf("divergence %+v, want index 1 at lines 5 and 3", d.Divergence)
	}
}

// TestDiffEventsLongLine: lines longer than the read buffer compare whole.
func TestDiffEventsLongLine(t *testing.T) {
	long := `{"k":0,"t":10,"link":-1,"kind":"violation","check":"c","msg":"` + strings.Repeat("x", 150<<10) + `"}` + "\n"
	tail := `{"k":1,"t":20,"link":2,"kind":"tx","f":{"dur":500}}` + "\n"
	a := eventsHeader + long + tail
	d, err := DiffEvents(strings.NewReader(a), strings.NewReader(a), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !d.Equal || d.Events != 2 {
		t.Fatalf("identical long-line streams: equal=%v events=%d", d.Equal, d.Events)
	}
	b := eventsHeader + strings.Replace(long, "xxx\"", "xxy\"", 1) + tail
	d, err = DiffEvents(strings.NewReader(a), strings.NewReader(b), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if d.Equal || d.Divergence.Index != 0 || d.Divergence.LineA != 2 || len(d.Divergence.RawB) != len(long)-1 {
		t.Fatalf("long-line divergence %+v", d.Divergence)
	}
}
