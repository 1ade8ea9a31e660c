package telemetry

import (
	"encoding/binary"
	"fmt"
	"slices"
	"strings"
	"sync"
)

// Keys is an interned field schema: the payload field names of one event
// shape, in the byte order encoding/json sorts map keys by. Equal name sets
// intern to the same *Keys, so a consumer can tell two events' shapes apart
// with one pointer comparison, and a schema is built (and its JSON object
// keys pre-encoded) once per process rather than once per event. Keys is
// immutable.
type Keys struct {
	names []string
	// enc holds each name pre-encoded as a JSON object key, `"name":`, with
	// encoding/json's HTML-safe escaping; encStart[i]:encStart[i+1] bounds
	// name i.
	enc      []byte
	encStart []int
}

// Len returns the number of fields in the schema.
func (k *Keys) Len() int {
	if k == nil {
		return 0
	}
	return len(k.names)
}

// Index returns the position of the named field, or -1 when the schema has
// no such field. It scans the names with string equality, which rejects on
// length and accepts on a shared pointer before comparing bytes, so a
// canonical name finds its field in a few instructions; nothing is hashed.
func (k *Keys) Index(name string) int {
	if k == nil {
		return -1
	}
	for i, n := range k.names {
		if n == name {
			return i
		}
	}
	return -1
}

// intern is the process-wide schema table, keyed by the length-prefixed
// concatenation of a schema's sorted names. It grows with the number of
// distinct key sets the process builds or decodes; simulator streams carry a
// handful.
var intern = struct {
	sync.Mutex
	m map[string]*Keys
}{m: make(map[string]*Keys)}

// internSorted returns the interned schema of names, which must be sorted
// and free of duplicates. buf is scratch for the table key; the grown buffer
// is returned for reuse. The lookup allocates nothing once the schema exists.
func internSorted(names []string, buf []byte) (*Keys, []byte) {
	if len(names) == 0 {
		return nil, buf
	}
	buf = buf[:0]
	for _, n := range names {
		buf = binary.AppendUvarint(buf, uint64(len(n)))
		buf = append(buf, n...)
	}
	return internSig(buf), buf
}

// internSig returns the schema interned under table key sig (the
// length-prefixed sorted names), building it from the names sig spells the
// first time. The lookup allocates nothing once the schema exists.
func internSig(sig []byte) *Keys {
	intern.Lock()
	defer intern.Unlock()
	k := intern.m[string(sig)]
	if k == nil {
		k = &Keys{}
		for rest := sig; len(rest) > 0; {
			n, w := binary.Uvarint(rest)
			name := string(rest[w : w+int(n)])
			rest = rest[w+int(n):]
			k.names = append(k.names, name)
			k.encStart = append(k.encStart, len(k.enc))
			k.enc = appendString(k.enc, name)
			k.enc = append(k.enc, ':')
		}
		k.encStart = append(k.encStart, len(k.enc))
		intern.m[string(sig)] = k
	}
	return k
}

// NewKeys interns a static schema. The names must be given in byte order
// without duplicates — the order their values take in every Fields of this
// schema, so producers can index values by constant — and NewKeys panics
// otherwise.
func NewKeys(names ...string) *Keys {
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			panic(fmt.Sprintf("telemetry: schema names %q and %q out of byte order", names[i-1], names[i]))
		}
	}
	k, _ := internSorted(names, nil)
	return k
}

// Static schemas of the canonical event kinds, with the value position of
// each field. Producers fill a values slice by these positions; consumers
// read by name through Fields.Get, which works on any key set.
var (
	// TxKeys is the "tx" schema.
	TxKeys = NewKeys("dur", "empty", "outcome")
	// IntervalKeys is the "interval" schema.
	IntervalKeys = NewKeys("arrivals", "expired", "served")
	// SwapKeys is the "swap" schema.
	SwapKeys = NewKeys("accepted", "down", "pos", "up")
	// DebtKeys is the "debt" schema.
	DebtKeys = NewKeys("max", "mean", "positive")
	// BackoffKeys is the "backoff" schema.
	BackoffKeys = NewKeys("slots")
	// ConflictKeys is the "conflict" schema.
	ConflictKeys = NewKeys("peer")
	// StallKeys is the "stall" schema.
	StallKeys = NewKeys("budget_ns", "cause", "elapsed_ns", "gc_pause_ns", "gc_pauses", "overrun_ns", "sched_p99_ns")
	// AlertKeys is the "alert" schema.
	AlertKeys = NewKeys("scope", "severity", "state", "threshold", "value", "window")
)

// Value positions within the static schemas.
const (
	TxDur, TxEmpty, TxOutcome = 0, 1, 2

	IntervalArrivals, IntervalExpired, IntervalServed = 0, 1, 2

	SwapAccepted, SwapDown, SwapPos, SwapUp = 0, 1, 2, 3

	DebtMax, DebtMean, DebtPositive = 0, 1, 2

	BackoffSlots = 0

	ConflictPeer = 0

	StallBudget, StallCause, StallElapsed, StallGCPause, StallGCPauses, StallOverrun, StallSchedP99 = 0, 1, 2, 3, 4, 5, 6

	AlertScope, AlertSeverity, AlertState, AlertThreshold, AlertValue, AlertWindow = 0, 1, 2, 3, 4, 5
)

// prioSchema is one interned "prio" schema and its link-to-position map.
type prioSchema struct {
	keys *Keys
	slot []int
}

var prioSchemas = struct {
	sync.Mutex
	m map[int]prioSchema
}{m: make(map[int]prioSchema)}

// PrioKeys returns the interned schema of an n-link "prio" event — fields
// l0 … l<n-1> in byte order, so l10 sorts before l2 — and slot, where
// slot[link] is the position of link's value. Both are shared and must not
// be modified.
func PrioKeys(n int) (keys *Keys, slot []int) {
	prioSchemas.Lock()
	defer prioSchemas.Unlock()
	if s, ok := prioSchemas.m[n]; ok {
		return s.keys, s.slot
	}
	names := make([]string, n)
	for i := range names {
		names[i] = PrioKey(i)
	}
	slices.Sort(names)
	s := prioSchema{slot: make([]int, n)}
	s.keys, _ = internSorted(names, nil)
	for i := range s.slot {
		s.slot[i] = s.keys.Index(PrioKey(i))
	}
	prioSchemas.m[n] = s
	return s.keys, s.slot
}

// PrioKey is the "prio" field name carrying link's priority index.
func PrioKey(link int) string { return fmt.Sprintf("l%d", link) }

// Fields is an event's numeric payload: an interned key schema and one value
// per key, in key order. The zero Fields is empty. A Fields handed to a Sink
// usually aliases its producer's scratch values, which the next event
// overwrites; Clone it to keep it.
type Fields struct {
	keys *Keys
	vals []float64
}

// MakeFields pairs a schema with its values (len(vals) must equal
// keys.Len()). The values are not copied.
func MakeFields(keys *Keys, vals []float64) Fields {
	if keys.Len() != len(vals) {
		panic(fmt.Sprintf("telemetry: %d values for a %d-key schema", len(vals), keys.Len()))
	}
	if keys == nil {
		return Fields{}
	}
	return Fields{keys: keys, vals: vals}
}

// FieldsOf builds an owned Fields from a map, interning its key set. It is
// the bridge from map-shaped payloads (violations, tests) to the event
// record; nil and empty maps give the empty Fields.
func FieldsOf(m map[string]float64) Fields {
	if len(m) == 0 {
		return Fields{}
	}
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	slices.Sort(names)
	keys, _ := internSorted(names, nil)
	vals := make([]float64, len(names))
	for i, n := range names {
		vals[i] = m[n]
	}
	return Fields{keys: keys, vals: vals}
}

// Len returns the number of fields.
func (f Fields) Len() int { return len(f.vals) }

// Keys returns the interned schema (nil when empty).
func (f Fields) Keys() *Keys { return f.keys }

// Name returns field i's name.
func (f Fields) Name(i int) string { return f.keys.names[i] }

// Value returns field i's value.
func (f Fields) Value(i int) float64 { return f.vals[i] }

// Values returns the values in key order. The slice aliases the Fields.
func (f Fields) Values() []float64 { return f.vals }

// Lookup returns the named field's value and whether the payload has it.
func (f Fields) Lookup(name string) (float64, bool) {
	if i := f.keys.Index(name); i >= 0 {
		return f.vals[i], true
	}
	return 0, false
}

// Get returns the named field's value, or 0 when the payload lacks it.
func (f Fields) Get(name string) float64 {
	v, _ := f.Lookup(name)
	return v
}

// Clone returns a Fields owning a copy of the values.
func (f Fields) Clone() Fields {
	if f.keys == nil {
		return Fields{}
	}
	return Fields{keys: f.keys, vals: slices.Clone(f.vals)}
}

// Map returns the payload as a fresh map (nil when empty).
func (f Fields) Map() map[string]float64 {
	if f.keys == nil {
		return nil
	}
	m := make(map[string]float64, len(f.vals))
	for i, v := range f.vals {
		m[f.keys.names[i]] = v
	}
	return m
}

// String renders the payload as space-separated name=value pairs in key
// order.
func (f Fields) String() string {
	var b strings.Builder
	for i, v := range f.vals {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s=%v", f.keys.names[i], v)
	}
	return b.String()
}

// valueSlab hands out value slices carved from shared chunks, so decoding a
// whole stream into retained events costs one allocation per chunk rather
// than one per event.
type valueSlab struct{ free []float64 }

const slabChunk = 4096

// keep copies f's values into the slab.
func (s *valueSlab) keep(f Fields) Fields {
	n := len(f.vals)
	if n == 0 {
		return Fields{}
	}
	if n > len(s.free) {
		s.free = make([]float64, max(slabChunk, n))
	}
	vals := s.free[:n:n]
	s.free = s.free[n:]
	copy(vals, f.vals)
	return Fields{keys: f.keys, vals: vals}
}
