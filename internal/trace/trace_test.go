package trace

import (
	"testing"
	"time"

	"emptyheaded/internal/prov"
)

func TestTraceSpansAndFinish(t *testing.T) {
	r := NewRecorder(4)
	tr := r.Start("query")
	if tr.ID == 0 {
		t.Fatal("trace ID not assigned")
	}
	sp := tr.Begin("plan")
	time.Sleep(2 * time.Millisecond)
	tr.End(sp)
	tr.SpanAttrInt(sp, "bags", 3)
	open := tr.Begin("execute") // left open: Finish must close it
	tr.Annot("query", "triangle")
	tr.SetFingerprint("fp123")
	time.Sleep(time.Millisecond)
	tr.Finish()

	if tr.TotalUS <= 0 {
		t.Fatalf("TotalUS = %d", tr.TotalUS)
	}
	spans := tr.SpansSnapshot()
	if got := spans[sp].DurUS; got < 1000 {
		t.Fatalf("plan phase = %dus, want >= 1000", got)
	}
	if len(spans) != 2 {
		t.Fatalf("span count = %d", len(spans))
	}
	if spans[open].DurUS < 0 {
		t.Fatal("open span not closed by Finish")
	}
	if spans[sp].Attrs[0].Key != "bags" || spans[sp].Attrs[0].Val != "3" {
		t.Fatalf("span attrs = %+v", spans[sp].Attrs)
	}

	got, ok := r.Get(tr.ID)
	if !ok || got.Fingerprint != "fp123" {
		t.Fatalf("Get(%d) = %+v, %v", tr.ID, got, ok)
	}
}

func TestRecorderRingEviction(t *testing.T) {
	r := NewRecorder(3)
	var ids []uint64
	for i := 0; i < 5; i++ {
		tr := r.Start("query")
		ids = append(ids, tr.ID)
		tr.Finish()
	}
	done := r.Completed(0)
	if len(done) != 3 {
		t.Fatalf("retained %d traces, want 3", len(done))
	}
	// Newest first: IDs 5, 4, 3.
	for i, want := range []uint64{ids[4], ids[3], ids[2]} {
		if done[i].ID != want {
			t.Fatalf("Completed()[%d].ID = %d, want %d", i, done[i].ID, want)
		}
	}
	if _, ok := r.Get(ids[0]); ok {
		t.Fatal("evicted trace still retrievable")
	}
	if got := r.Completed(2); len(got) != 2 || got[0].ID != ids[4] {
		t.Fatalf("Completed(2) = %v", got)
	}
}

func TestNilSafety(t *testing.T) {
	var r *Recorder
	tr := r.Start("query")
	if tr != nil {
		t.Fatal("nil recorder should start nil trace")
	}
	// All of these must be no-ops, not panics.
	sp := tr.Begin("x")
	if sp != -1 {
		t.Fatalf("nil Begin = %d", sp)
	}
	tr.End(sp)
	tr.SpanAttr(sp, "k", "v")
	tr.Annot("k", "v")
	tr.AnnotInt("k", 1)
	tr.SetFingerprint("fp")
	tr.SetError("boom")
	tr.Finish()
	if tr.TraceID() != 0 || tr.SpansSnapshot() != nil {
		t.Fatal("nil trace leaked state")
	}
	if r.Completed(10) != nil {
		t.Fatal("nil recorder Completed")
	}
}

// TestRecordRingNilSafe: a disabled (nil) recorder is also a disabled
// provenance ring — filing a record on its nil trace is a no-op and
// nothing resolves by trace id.
func TestRecordRingNilSafe(t *testing.T) {
	var r *Recorder
	tr := r.Start("query")
	tr.SetProvenance(&prov.Record{TraceID: 1, Fingerprint: "fp"})
	tr.Finish()
	if tr.TraceID() != 0 {
		t.Fatal("nil trace has an id")
	}
	if _, ok := r.Get(1); ok {
		t.Fatal("nil recorder Get")
	}
	if r.Completed(5) != nil {
		t.Fatal("nil recorder returned recent traces")
	}
}

// TestRecorderKeepsProvenance: a query's provenance record is filed
// with its trace, resolves by trace id while the ring retains the
// trace, and is evicted with it.
func TestRecorderKeepsProvenance(t *testing.T) {
	r := NewRecorder(3)
	var ids []uint64
	for i := 0; i < 5; i++ {
		tr := r.Start("query")
		ids = append(ids, tr.ID)
		tr.SetProvenance(&prov.Record{TraceID: tr.ID, Fingerprint: "fp", Cardinality: i})
		tr.Finish()
	}
	upd := r.Start("update") // updates interleave without a record
	upd.Finish()
	for _, id := range ids[:3] {
		if _, ok := r.Get(id); ok {
			t.Fatalf("trace %d should have been evicted", id)
		}
	}
	for i, id := range ids[3:] {
		tr, ok := r.Get(id)
		if !ok || tr.Provenance == nil || tr.Provenance.TraceID != id || tr.Provenance.Cardinality != 3+i {
			t.Fatalf("trace %d: %+v, ok=%v", id, tr, ok)
		}
	}
	if got, _ := r.Get(upd.ID); got.Provenance != nil {
		t.Fatalf("update trace carries a record: %+v", got.Provenance)
	}
}
