package ring

import (
	"reflect"
	"testing"
)

func TestRingGrowsThenWraps(t *testing.T) {
	r := New[int](3)
	if r.Len() != 0 || r.Cap() != 3 || len(r.Slice()) != 0 || r.Slice() == nil {
		t.Fatalf("empty ring: len %d cap %d slice %v", r.Len(), r.Cap(), r.Slice())
	}
	for v := 1; v <= 7; v++ {
		*r.Push() = v
		want := []int{}
		for w := max(1, v-2); w <= v; w++ {
			want = append(want, w)
		}
		if got := r.Slice(); !reflect.DeepEqual(got, want) {
			t.Fatalf("after pushing %d: Slice = %v, want %v", v, got, want)
		}
		for i, w := range want {
			if got := *r.At(i); got != w {
				t.Fatalf("after pushing %d: At(%d) = %d, want %d", v, i, got, w)
			}
		}
		if r.Len() != len(want) {
			t.Fatalf("after pushing %d: Len = %d", v, r.Len())
		}
	}
}

func TestRingPushReusesEvictedSlot(t *testing.T) {
	r := New[[]byte](2)
	for i, s := range []string{"aaaa", "bbbb"} {
		slot := r.Push()
		if *slot != nil {
			t.Fatalf("push %d below capacity: slot holds %q, want zero", i, *slot)
		}
		*slot = append(*slot, s...)
	}
	oldest := r.At(0)
	buf := *oldest
	slot := r.Push()
	if slot != oldest || string(*slot) != "aaaa" {
		t.Fatalf("full push returned %q, want the evicted oldest slot", *slot)
	}
	*slot = append((*slot)[:0], "cc"...)
	if &(*slot)[0] != &buf[0] {
		t.Fatal("evicted buffer was not reused")
	}
	if got := r.Slice(); string(got[0]) != "bbbb" || string(got[1]) != "cc" {
		t.Fatalf("order after reuse: %q", got)
	}
}

func TestRingSliceIsACopy(t *testing.T) {
	r := New[int](2)
	*r.Push() = 1
	s := r.Slice()
	*r.Push() = 2
	*r.Push() = 3
	if s[0] != 1 {
		t.Fatalf("Slice aliased the ring: %v", s)
	}
}

func TestRingValidation(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("negative capacity", func() { New[int](-1) })
	r := New[int](2)
	*r.Push() = 1
	mustPanic("At past Len", func() { r.At(1) })
	mustPanic("At negative", func() { r.At(-1) })
	mustPanic("Push on zero capacity", func() { z := New[int](0); z.Push() })
}
