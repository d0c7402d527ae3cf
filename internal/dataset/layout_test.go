package dataset

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"iqb/internal/stats"
)

// refMatches is the filter rule over plain records that the stored
// layout must reproduce.
func refMatches(f Filter, r *Record) bool {
	return (f.Dataset == "" || r.Dataset == f.Dataset) &&
		(f.RegionPrefix == "" || regionMatch(f.RegionPrefix, r.Region)) &&
		(f.ASN == 0 || r.ASN == f.ASN) &&
		(f.From.IsZero() || !r.Time.Before(f.From)) &&
		(f.To.IsZero() || r.Time.Before(f.To))
}

// layoutRecord draws a record over the corners of the stored layout:
// fixed zones with and without names, the Local and UTC zones, years -1,
// 0 and 10000, nanoseconds, missing metrics and -0, ASN and Tech set or
// not, and IDs holding markup or U+2028, or long enough to open a
// shared arena chunk larger than the first, to fill maxSharedEntry
// exactly, or to need a chunk of their own.
func layoutRecord(src *rand.Rand, i int) Record {
	zones := []*time.Location{time.UTC, time.Local,
		time.FixedZone("", 5*3600+30*60), time.FixedZone("", -8*3600), time.FixedZone("EST", -5*3600)}
	years := []int{-1, 0, 1969, 2025, 10000}
	t := time.Date(years[src.Intn(len(years))], time.Month(1+src.Intn(12)), 1+src.Intn(28),
		src.Intn(24), src.Intn(60), src.Intn(60), src.Intn(1e9), zones[src.Intn(len(zones))])
	ids := []string{"r<&>", "r\u2028", "r\"q\\", "r", "", "", "", ""}
	id := fmt.Sprintf("%s-%d", ids[src.Intn(len(ids))], i)
	if id[0] == '-' {
		// A long ID, padded to its length: the entry's 2- or 3-byte
		// header aside, maxSharedEntry-3 fills a shared chunk's limit.
		lengths := []int{300, 5 << 10, maxSharedEntry - 3, maxSharedEntry + 1 + src.Intn(100)}
		id += strings.Repeat("L", lengths[src.Intn(len(lengths))]-len(id))
	}
	datasets := []string{"ndt", "cloudflare", "ookla"}
	regions := []string{"XA", "XA-01", "XA-01-001", "XA-01-002", "XA-02-001", "XB-01"}
	r := NewRecord(id, datasets[src.Intn(len(datasets))], regions[src.Intn(len(regions))], t)
	if src.Intn(2) == 0 {
		r.ASN = uint32(64500 + src.Intn(3))
	}
	if src.Intn(2) == 0 {
		r.Tech = []string{"fiber", "dsl"}[src.Intn(2)]
	}
	for _, m := range AllMetrics() {
		switch src.Intn(4) {
		case 0: // missing
		case 1:
			r.SetValue(m, math.Copysign(0, -1))
		default:
			r.SetValue(m, src.Float64())
		}
	}
	if !r.Has(Download) {
		r.SetValue(Download, 1+src.Float64()*100)
	}
	return r
}

// layoutFilter draws a filter over the same value space, including a
// dataset and a region the store never holds, and time bounds on,
// just before or just after a stored record's instant.
func layoutFilter(src *rand.Rand, ref []Record) Filter {
	var f Filter
	if src.Intn(3) == 0 {
		f.Dataset = []string{"ndt", "cloudflare", "ookla", "nope"}[src.Intn(4)]
	}
	if src.Intn(2) == 0 {
		f.RegionPrefix = []string{"XA", "XA-01", "XA-01-001", "XA-02", "XA-0", "XC"}[src.Intn(6)]
	}
	if src.Intn(4) == 0 {
		f.ASN = uint32(64500 + src.Intn(4))
	}
	bound := func() time.Time {
		if src.Intn(2) == 0 {
			return ref[src.Intn(len(ref))].Time.Add(time.Duration(src.Intn(3) - 1))
		}
		return time.Date(1969+src.Intn(60), time.January, 1, 0, 0, 0, src.Intn(1e9), time.FixedZone("", 3600*src.Intn(5)))
	}
	if src.Intn(3) == 0 {
		f.From = bound()
	}
	if src.Intn(3) == 0 {
		f.To = bound()
	}
	return f
}

// TestLayoutMatchesReferenceScan is a seeded property test of the
// pointer-free layout: after random batches of random records, Select,
// Gather, Values, TimeBounds and Aggregate answer every random filter
// as a scan over the plain []Record does, in the same order, with
// bit-equal floats and Equal times of the same zone name and offset.
func TestLayoutMatchesReferenceScan(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		src := rand.New(rand.NewSource(seed))
		s := NewStoreWith(Options{Shards: 1 + src.Intn(8)})
		var ref []Record
		for len(ref) < 600 {
			batch := make([]Record, 1+src.Intn(40))
			for i := range batch {
				batch[i] = layoutRecord(src, len(ref)+i)
			}
			if err := s.AddBatch(batch); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			ref = append(ref, batch...)
		}
		for k := 0; k < 60; k++ {
			f := layoutFilter(src, ref)
			if k == 0 {
				f = Filter{}
			}
			var want []Record
			for i := range ref {
				if refMatches(f, &ref[i]) {
					want = append(want, ref[i])
				}
			}
			checkFilter(t, fmt.Sprintf("seed %d filter %+v", seed, f), s, f, want)
		}
	}
}

func checkFilter(t *testing.T, how string, s *Store, f Filter, want []Record) {
	t.Helper()
	sameRecords(t, how+": Select", s.Select(f), want)

	// Gather: the same records as a multiset, read through the view.
	key := func(ds, id string) string { return ds + "\x00" + id }
	byKey := map[string]Record{}
	for _, r := range want {
		byKey[key(r.Dataset, r.ID)] = r
	}
	// "nope" is a dataset the store never holds; "cloudflare" is left out.
	datasets := []string{"nope", "ookla", "ndt"}
	v := s.Gather(f, datasets)
	if len(v.Rows) != len(want) {
		t.Fatalf("%s: Gather returned %d rows, want %d", how, len(v.Rows), len(want))
	}
	for _, row := range v.Rows {
		w, ok := byKey[key(s.dict.nameList()[row.ds], string(s.id(row)))]
		if !ok {
			t.Fatalf("%s: Gather returned a row the reference does not select", how)
		}
		if i := v.DatasetIndex(row); i != slices.Index(datasets, w.Dataset) {
			t.Fatalf("%s: Gather row of %s/%s: DatasetIndex = %d", how, w.Dataset, w.ID, i)
		}
		if !row.Time().Equal(w.Time) || row.Time().Location() != time.UTC {
			t.Fatalf("%s: Gather row of %s: time differs", how, w.ID)
		}
		for _, m := range AllMetrics() {
			gv, gok := row.Value(m)
			wv, wok := w.Value(m)
			if gok != wok || math.Float64bits(gv) != math.Float64bits(wv) {
				t.Fatalf("%s: Gather row of %s: %v = %v, %v; want %v, %v", how, w.ID, m, gv, gok, wv, wok)
			}
		}
	}

	for _, m := range AllMetrics() {
		var vals []float64
		for _, r := range want {
			if v, ok := r.Value(m); ok {
				vals = append(vals, v)
			}
		}
		got := s.Values(f, m)
		if !slices.EqualFunc(got, vals, func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }) {
			t.Fatalf("%s: Values(%v) = %v, want %v", how, m, got, vals)
		}
		for _, q := range []float64{0, 50, 95} {
			v, n, err := s.Aggregate(f, m, q)
			wv, werr := stats.PercentileInPlace(slices.Clone(vals), q, stats.Linear)
			if n != len(vals) || !errors.Is(err, werr) || math.Float64bits(v) != math.Float64bits(wv) {
				t.Fatalf("%s: Aggregate(%v, p%v) = %v, %d, %v; want %v, %d, %v", how, m, q, v, n, err, wv, len(vals), werr)
			}
		}
	}

	lo, hi, ok := s.TimeBounds(f)
	if ok != (len(want) > 0) {
		t.Fatalf("%s: TimeBounds ok = %v with %d records", how, ok, len(want))
	}
	if ok {
		wlo, whi := want[0].Time, want[0].Time
		for _, r := range want {
			if r.Time.Before(wlo) {
				wlo = r.Time
			}
			if r.Time.After(whi) {
				whi = r.Time
			}
		}
		if !lo.Equal(wlo) || !hi.Equal(whi) {
			t.Fatalf("%s: TimeBounds = %v, %v; want %v, %v", how, lo, hi, wlo, whi)
		}
	}
}

// TestRowIsPointerFree: a stored row is at most 80 bytes and holds no
// pointer the garbage collector would scan.
func TestRowIsPointerFree(t *testing.T) {
	typ := reflect.TypeOf(Row{})
	if typ.Size() > 80 {
		t.Errorf("Row is %d bytes, want at most 80", typ.Size())
	}
	for i := 0; i < typ.NumField(); i++ {
		switch k := typ.Field(i).Type.Kind(); k {
		case reflect.Uint32, reflect.Uint64, reflect.Int64, reflect.Array:
			if k == reflect.Array && typ.Field(i).Type.Elem().Kind() != reflect.Float64 {
				t.Errorf("Row.%s is an array of %v", typ.Field(i).Name, typ.Field(i).Type.Elem())
			}
		default:
			t.Errorf("Row.%s is a %v", typ.Field(i).Name, k)
		}
	}
}

// TestSelectKeepsZoneIdentity: UTC and time.Local come back as
// themselves, and every other zone as one shared fixed zone per (name,
// offset).
func TestSelectKeepsZoneIdentity(t *testing.T) {
	est := time.FixedZone("EST", -5*3600)
	base := time.Date(2025, 6, 1, 12, 0, 0, 7, time.UTC)
	s := NewStore()
	rs := []Record{mkRec("u", "ndt", "XA", 0, 1), mkRec("l", "ndt", "XA", 0, 1), mkRec("e1", "ndt", "XA", 0, 1), mkRec("e2", "ndt", "XA", 0, 1)}
	rs[0].Time = base
	rs[1].Time = base.In(time.Local)
	rs[2].Time = base.In(est)
	rs[3].Time = base.Add(time.Hour).In(time.FixedZone("EST", -5*3600))
	if err := s.AddBatch(rs); err != nil {
		t.Fatal(err)
	}
	got := s.Select(Filter{})
	if got[0].Time.Location() != time.UTC || got[1].Time.Location() != time.Local {
		t.Errorf("UTC and Local came back as %v and %v", got[0].Time.Location(), got[1].Time.Location())
	}
	if got[2].Time.Location() != got[3].Time.Location() {
		t.Error("one (name, offset) came back as two zones")
	}
	for i := range rs {
		if !sameRecord(got[i], rs[i]) {
			t.Errorf("record %d: got %+v, want %+v", i, got[i], rs[i])
		}
	}
}

// TestIndexOverflowLeavesStoreUnchanged: a batch that would push a
// dictionary index or an ID arena reference past what a row stores
// fails whole, claims nothing, and the store takes the same records
// once there is room.
func TestIndexOverflowLeavesStoreUnchanged(t *testing.T) {
	batch := []Record{mkRec("a", "ndt", "XA-01", 0, 1), mkRec("b", "ndt", "XA-02", 0, 1), mkRec("c", "ndt", "XA-03", 0, 1)}

	s := NewStore()
	s.dict.limit = len(s.dict.nameList()) + 2 // "ndt" and "XA-01" fit, "XA-02" does not
	if err := s.AddBatch(batch); !errors.Is(err, errDictFull) {
		t.Fatalf("AddBatch past the dictionary limit = %v, want errDictFull", err)
	}
	if s.Len() != 0 {
		t.Fatalf("Len = %d after a failed batch", s.Len())
	}
	s.dict.limit = math.MaxUint32 - 1
	if err := s.AddBatch(batch); err != nil {
		t.Fatalf("retry with room: %v", err)
	}

	s = NewStore()
	for i := range s.stripes {
		s.stripes[i].arena.limit = 0
	}
	if err := s.AddBatch(batch); !errors.Is(err, errArenaFull) {
		t.Fatalf("AddBatch past the arena limit = %v, want errArenaFull", err)
	}
	if s.Len() != 0 {
		t.Fatalf("Len = %d after a failed batch", s.Len())
	}
	for i := range s.stripes {
		s.stripes[i].arena.limit = maxArenaChunks
	}
	if err := s.AddBatch(batch); err != nil {
		t.Fatalf("retry with room: %v", err)
	}
	if got := s.Select(Filter{}); len(got) != 3 || got[2].ID != "c" {
		t.Fatalf("Select = %+v", got)
	}
}

// TestArenaReadsBackEveryLength: an entry of any length reads back
// whole, whether it opens a fresh arena or follows others, at the
// lengths around the first chunk's size and the shared-chunk limit.
func TestArenaReadsBackEveryLength(t *testing.T) {
	lengths := []int{0, 1, 250, 253, 254, 255, 256, 300, 5 << 10, maxSharedEntry - 4, maxSharedEntry - 3,
		maxSharedEntry - 2, maxSharedEntry, maxSharedEntry + 1, maxArenaChunk, maxArenaChunk + 7}
	id := func(n, k int) string { return strings.Repeat(string(rune('a'+k%26)), n) }
	check := func(a *idArena, ref uint32, ds sym, want string) {
		t.Helper()
		gds, gid := a.entry(ref)
		if gds != ds || string(gid) != want {
			t.Fatalf("entry %#x = %d, %d bytes; want %d, %d bytes", ref, gds, len(gid), ds, len(want))
		}
	}
	for k, n := range lengths {
		a := idArena{limit: maxArenaChunks}
		ref, err := a.add(sym(k), id(n, k))
		if err != nil {
			t.Fatal(err)
		}
		check(&a, ref, sym(k), id(n, k))
	}
	a := idArena{limit: maxArenaChunks}
	var refs []uint32
	for round := 0; round < 3; round++ {
		for k, n := range lengths {
			ref, err := a.add(sym(k), id(n, k))
			if err != nil {
				t.Fatal(err)
			}
			refs = append(refs, ref)
		}
	}
	for i, ref := range refs {
		k := i % len(lengths)
		check(&a, ref, sym(k), id(lengths[k], k))
	}
}

// TestRejectedBatchInternsNothing: a batch rejected as a duplicate,
// even one carrying names and a zone the store has never held, leaves
// the dictionary and every ID arena as they were, so rejected requests
// cannot grow the store.
func TestRejectedBatchInternsNothing(t *testing.T) {
	s := NewStore()
	if err := s.AddBatch([]Record{mkRec("a", "ndt", "XA-01", 0, 1)}); err != nil {
		t.Fatal(err)
	}
	names, zones := len(s.dict.nameList()), len(s.dict.zoneList())
	arenas := func() (n int) {
		for i := range s.stripes {
			n += len(list(&s.stripes[i].arena.chunks)) + s.stripes[i].arena.pos
		}
		return n
	}
	before := arenas()
	fresh := mkRec("b", "cloudflare", "XZ-99", 0, 1)
	fresh.Tech = "satellite"
	fresh.Time = fresh.Time.In(time.FixedZone("NEW", 3*3600))
	for _, batch := range [][]Record{
		{fresh, mkRec("a", "ndt", "XA-01", 0, 1)},                          // against the store
		{fresh, mkRec("c", "ndt", "XY-01", 0, 1), fresh},                   // within the batch
		{mkRec("c", "mlab", "XY-02", 0, 1), mkRec("a", "ndt", "XA", 0, 1)}, // new dataset first
	} {
		if err := s.AddBatch(batch); !errors.Is(err, ErrDuplicate) {
			t.Fatalf("AddBatch = %v, want ErrDuplicate", err)
		}
	}
	if len(s.dict.nameList()) != names || len(s.dict.zoneList()) != zones || arenas() != before {
		t.Fatalf("rejected batches grew the store: names %d → %d, zones %d → %d, arena %d → %d",
			names, len(s.dict.nameList()), zones, len(s.dict.zoneList()), before, arenas())
	}
	if err := s.AddBatch([]Record{fresh}); err != nil {
		t.Fatal(err)
	}
	if got := s.Select(Filter{Dataset: "cloudflare"}); len(got) != 1 || !sameRecord(got[0], fresh) {
		t.Fatalf("Select = %+v", got)
	}
}

// TestCutEachWhileWriting: records added while a cut streams — enough
// to grow the first row chunk and open new ones — stay out of it, and
// the cut streams exactly the records Select saw when it was taken.
func TestCutEachWhileWriting(t *testing.T) {
	s := NewStoreWith(Options{Shards: 3})
	src := rand.New(rand.NewSource(9))
	next := 0
	add := func(n int) {
		batch := make([]Record, n)
		for i := range batch {
			batch[i] = layoutRecord(src, next)
			next++
		}
		if err := s.AddBatch(batch); err != nil {
			t.Fatal(err)
		}
	}
	add(5)
	want := s.Select(Filter{})
	cut := s.Cut()
	var got []Record
	err := cut.Each(2, func(rs []Record) error {
		got = append(got, rs...)
		add(300)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if cut.Len() != len(want) || s.Len() == len(want) {
		t.Fatalf("cut holds %d records, store %d; want %d and more", cut.Len(), s.Len(), len(want))
	}
	sameRecords(t, "Cut.Each", got, want)
}
