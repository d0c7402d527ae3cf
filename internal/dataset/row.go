package dataset

import (
	"errors"
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// sym is a string's index in its store's dictionary. A stored row names
// its Dataset, Region and Tech by sym, so it holds no pointers.
type sym uint32

// noSym is what a lookup answers for a string the dictionary has never
// held. No row carries it.
const noSym = ^sym(0)

// The zone indexes every dictionary reserves: UTC and time.Local keep
// their identity through the store.
const (
	zoneUTC = iota
	zoneLocal
)

// errDictFull marks a batch that would push a dictionary index past the
// uint32 a row stores it in.
var errDictFull = errors.New("dataset: dictionary full")

// Row is one stored record in the store's pointer-free layout: the time
// as Unix seconds, nanoseconds and a zone index, the metrics bit for
// bit (NaN still means missing), the ASN, and dictionary indexes for
// Dataset, Region, Tech and the zone. The ID lives once, in its dedup
// stripe's arena. A Row is 80 bytes and the garbage collector never
// scans it.
//
// Store.Gather hands out pointers to stored rows; rows never change
// once stored, and callers must not modify them.
type Row struct {
	seq  uint64
	sec  int64
	vals [numMetrics]float64
	// id locates the ID: its stripe in the high 32 bits, its arena
	// reference in the low 32.
	id               uint64
	nsec             uint32
	zone             uint32
	asn              uint32
	ds, region, tech sym
}

// Time returns when the measurement completed, in UTC. Select restores
// the record's own zone; the instant is the same.
func (r *Row) Time() time.Time { return time.Unix(r.sec, int64(r.nsec)).UTC() }

// Value returns the metric value and whether it is present.
func (r *Row) Value(m Metric) (float64, bool) {
	if m < 0 || m >= numMetrics || math.IsNaN(r.vals[m]) {
		return 0, false
	}
	return r.vals[m], true
}

// before reports whether the row's instant is before (sec, nsec).
func (r *Row) before(sec int64, nsec uint32) bool {
	return r.sec < sec || (r.sec == sec && r.nsec < nsec)
}

// newRow fills the fields of a row that need no dictionary.
func newRow(rec *Record) Row {
	return Row{
		sec:  rec.Time.Unix(),
		nsec: uint32(rec.Time.Nanosecond()),
		vals: [numMetrics]float64{rec.DownloadMbps, rec.UploadMbps, rec.LatencyMS, rec.LossFrac},
		asn:  rec.ASN,
	}
}

// zoneKey names a zone other than UTC and time.Local.
type zoneKey struct {
	name   string
	offset int
}

// dictionary is a store's append-only table of the Dataset, Region and
// Tech strings and the time zones its rows name. The name and zone lists
// are published through atomic pointers, and names are found through a
// sync.Map, so neither a reader nor a writer interning a name it already
// holds takes a lock: an entry is published before any row carrying its
// index is stored, and a published entry never changes. mu serializes
// adding entries; nothing else is locked while it is held.
type dictionary struct {
	mu        sync.Mutex
	index     sync.Map // string → sym
	zoneIndex map[zoneKey]uint32
	names     atomic.Pointer[[]string]
	zones     atomic.Pointer[[]*time.Location]
	// limit caps the entries of each list, so no index reaches noSym.
	limit int
}

func newDictionary() *dictionary {
	d := &dictionary{zoneIndex: map[zoneKey]uint32{}, limit: math.MaxUint32 - 1}
	d.index.Store("", sym(publish(&d.names, "")))
	publish(&d.zones, time.UTC)
	publish(&d.zones, time.Local)
	return d
}

// list loads the list p points to; nil until the first publish.
func list[T any](p *atomic.Pointer[[]T]) []T {
	if l := p.Load(); l != nil {
		return *l
	}
	return nil
}

// publish appends v to the list p points to and returns its index.
// Readers of the old list read only below its length, so writing past
// it in a shared backing array races with none of them. Publishers
// serialize on a lock of their own.
func publish[T any](p *atomic.Pointer[[]T], v T) int {
	next := append(list(p), v)
	p.Store(&next)
	return len(next) - 1
}

// nameList returns the names published so far, for reading the names of
// rows already stored.
func (d *dictionary) nameList() []string { return list(&d.names) }

// zoneList returns the zones published so far.
func (d *dictionary) zoneList() []*time.Location { return list(&d.zones) }

// lookup returns s's index without adding s, or noSym.
func (d *dictionary) lookup(s string) sym {
	if y, ok := d.index.Load(s); ok {
		return y.(sym)
	}
	return noSym
}

// find is lookup in the form lastName.resolve takes.
func (d *dictionary) find(s string) (sym, error) { return d.lookup(s), nil }

// intern returns s's index, adding s if it is new.
func (d *dictionary) intern(s string) (sym, error) {
	if y := d.lookup(s); y != noSym {
		return y, nil
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if y := d.lookup(s); y != noSym {
		return y, nil
	}
	if len(d.nameList()) >= d.limit {
		return 0, errDictFull
	}
	y := sym(publish(&d.names, s))
	d.index.Store(s, y)
	return y, nil
}

// internZone returns the zone index of t's location: zoneUTC and
// zoneLocal for those two, and one index per (name, offset) of any
// other.
func (d *dictionary) internZone(t time.Time) (uint32, error) {
	switch t.Location() {
	case time.UTC:
		return zoneUTC, nil
	case time.Local:
		return zoneLocal, nil
	}
	name, offset := t.Zone()
	k := zoneKey{name, offset}
	d.mu.Lock()
	defer d.mu.Unlock()
	if z, ok := d.zoneIndex[k]; ok {
		return z, nil
	}
	if len(d.zoneList()) >= d.limit {
		return 0, errDictFull
	}
	z := uint32(publish(&d.zones, time.FixedZone(name, offset)))
	d.zoneIndex[k] = z
	return z, nil
}

// fill sets the dictionary fields of rows[i] from rs[i], interning what
// is new. On errDictFull the names interned before it stay.
func (d *dictionary) fill(rows []Row, rs []Record) error {
	var ds, region, tech lastName
	for i := range rs {
		r, row := &rs[i], &rows[i]
		var err error
		if row.ds, err = ds.resolve(r.Dataset, d.intern); err != nil {
			return err
		}
		if row.region, err = region.resolve(r.Region, d.intern); err != nil {
			return err
		}
		if row.tech, err = tech.resolve(r.Tech, d.intern); err != nil {
			return err
		}
		if row.zone, err = d.internZone(r.Time); err != nil {
			return err
		}
	}
	return nil
}

// lastName remembers the last name a batch resolved and its index: a
// batch mostly repeats its datasets, regions and Tech, and comparing
// with the last name costs less than a dictionary lookup.
type lastName struct {
	name string
	y    sym
	set  bool
}

func (l *lastName) resolve(name string, f func(string) (sym, error)) (sym, error) {
	if l.set && l.name == name {
		return l.y, nil
	}
	y, err := f(name)
	if err == nil {
		*l = lastName{name, y, true}
	}
	return y, err
}

// rowTime restores a row's time in its own zone: UTC and time.Local as
// themselves, any other as the zone's shared fixed zone. zones is the
// dictionary's zone list, loaded after the row was read.
func rowTime(r *Row, zones []*time.Location) time.Time {
	t := time.Unix(r.sec, int64(r.nsec))
	switch r.zone {
	case zoneUTC:
		return t.UTC()
	case zoneLocal:
		return t
	}
	return t.In(zones[r.zone])
}
