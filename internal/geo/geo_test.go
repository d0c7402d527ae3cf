package geo

import (
	"strings"
	"testing"

	"iqb/internal/rng"
)

func buildSmall(t *testing.T) *DB {
	t.Helper()
	db := NewDB()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(db.AddRegion(Region{Code: "XA", Name: "Examplia", Level: Country}))
	must(db.AddRegion(Region{Code: "XA-01", Level: State, Parent: "XA"}))
	must(db.AddRegion(Region{Code: "XA-02", Level: State, Parent: "XA"}))
	must(db.AddRegion(Region{Code: "XA-01-001", Level: County, Parent: "XA-01", Population: 1000, Character: Urban}))
	must(db.AddRegion(Region{Code: "XA-01-002", Level: County, Parent: "XA-01", Population: 500, Character: Rural}))
	must(db.AddISP(ISP{ASN: 64500, Name: "NorthFiber"}))
	must(db.AddISP(ISP{ASN: 64501, Name: "MetroLink"}))
	must(db.SetMarket("XA-01-001", []MarketShare{{ASN: 64500, Share: 3}, {ASN: 64501, Share: 1}}))
	return db
}

func TestAddRegionErrors(t *testing.T) {
	db := NewDB()
	if err := db.AddRegion(Region{}); err == nil {
		t.Error("empty code should error")
	}
	if err := db.AddRegion(Region{Code: "XA"}); err != nil {
		t.Fatal(err)
	}
	if err := db.AddRegion(Region{Code: "XA"}); err == nil {
		t.Error("duplicate should error")
	}
	if err := db.AddRegion(Region{Code: "XB"}); err == nil {
		t.Error("second root should error")
	}
	if err := db.AddRegion(Region{Code: "XA-01", Parent: "nope"}); err == nil {
		t.Error("missing parent should error")
	}
}

func TestAddISPErrors(t *testing.T) {
	db := NewDB()
	if err := db.AddISP(ISP{ASN: 0}); err == nil {
		t.Error("zero ASN should error")
	}
	if err := db.AddISP(ISP{ASN: 1}); err != nil {
		t.Fatal(err)
	}
	if err := db.AddISP(ISP{ASN: 1}); err == nil {
		t.Error("duplicate ASN should error")
	}
}

func TestSetMarket(t *testing.T) {
	db := buildSmall(t)
	m := db.Market("XA-01-001")
	if len(m) != 2 {
		t.Fatalf("market size = %d", len(m))
	}
	total := m[0].Share + m[1].Share
	if total < 0.999 || total > 1.001 {
		t.Errorf("market not normalized: %v", total)
	}
	// 3:1 ratio preserved; sorted by ASN so 64500 first.
	if m[0].ASN != 64500 || m[0].Share < 0.74 || m[0].Share > 0.76 {
		t.Errorf("dominant share = %+v", m[0])
	}

	if err := db.SetMarket("missing", m); err == nil {
		t.Error("unknown region should error")
	}
	if err := db.SetMarket("XA-01-002", nil); err == nil {
		t.Error("empty market should error")
	}
	if err := db.SetMarket("XA-01-002", []MarketShare{{ASN: 9, Share: 1}}); err == nil {
		t.Error("unknown ASN should error")
	}
	if err := db.SetMarket("XA-01-002", []MarketShare{{ASN: 64500, Share: -1}}); err == nil {
		t.Error("negative share should error")
	}
}

func TestHierarchyQueries(t *testing.T) {
	db := buildSmall(t)
	if db.Root() != "XA" {
		t.Errorf("Root = %q", db.Root())
	}
	if got := db.Regions(State); len(got) != 2 || got[0] != "XA-01" {
		t.Errorf("Regions(State) = %v", got)
	}
	if got := db.AllRegions(); len(got) != 5 {
		t.Errorf("AllRegions = %v", got)
	}
}

func TestLookups(t *testing.T) {
	db := buildSmall(t)
	if r, ok := db.Region("XA-01-001"); !ok || r.Character != Urban {
		t.Errorf("Region lookup = %+v, %v", r, ok)
	}
	if _, ok := db.Region("nope"); ok {
		t.Error("missing region should not be found")
	}
	isps := db.ISPs()
	if len(isps) != 2 || isps[0].ASN != 64500 || isps[1].Name != "MetroLink" {
		t.Errorf("ISPs = %v", isps)
	}
	if !strings.Contains(db.String(), "regions=5") {
		t.Errorf("String = %q", db.String())
	}
}

func TestValidate(t *testing.T) {
	db := buildSmall(t)
	if err := db.Validate(); err != nil {
		t.Errorf("valid db failed: %v", err)
	}
	if err := NewDB().Validate(); err == nil {
		t.Error("empty db should be invalid (no root)")
	}
	// Negative population.
	r, _ := db.Region("XA-01-001")
	r.Population = -1
	if err := db.Validate(); err == nil {
		t.Error("negative population should be invalid")
	}
	r.Population = 1000
}

func TestLevelCharacterStrings(t *testing.T) {
	if Country.String() != "country" || State.String() != "state" || County.String() != "county" {
		t.Error("level strings")
	}
	if Urban.String() != "urban" || Suburban.String() != "suburban" || Rural.String() != "rural" {
		t.Error("character strings")
	}
	if Level(9).String() == "" || Character(9).String() == "" {
		t.Error("unknown values should still format")
	}
}

func TestSynthesizeDefault(t *testing.T) {
	db, err := Synthesize(DefaultSynthSpec(), rng.New(42))
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Validate(); err != nil {
		t.Fatal(err)
	}
	counties := db.Regions(County)
	if len(counties) != 12 {
		t.Errorf("counties = %d, want 12", len(counties))
	}
	if len(db.Regions(State)) != 4 {
		t.Error("want 4 states")
	}
	if len(db.ISPs()) != 3 {
		t.Error("want 3 ISPs")
	}
	// Every county must have a normalized market.
	for _, c := range counties {
		m := db.Market(c)
		if len(m) == 0 {
			t.Errorf("county %s has no market", c)
		}
	}
	// Populations roll up.
	root, _ := db.Region(db.Root())
	sum := 0
	for _, c := range counties {
		r, _ := db.Region(c)
		sum += r.Population
	}
	if root.Population != sum {
		t.Errorf("country pop %d != sum of counties %d", root.Population, sum)
	}
}

func TestSynthesizeDeterministic(t *testing.T) {
	a, err := Synthesize(DefaultSynthSpec(), rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	b, _ := Synthesize(DefaultSynthSpec(), rng.New(7))
	for _, code := range a.Regions(County) {
		ra, _ := a.Region(code)
		rb, ok := b.Region(code)
		if !ok || ra.Population != rb.Population || ra.Character != rb.Character {
			t.Fatalf("county %s differs across same-seed runs", code)
		}
	}
}

func TestSynthesizeRuralMarketsSmaller(t *testing.T) {
	spec := DefaultSynthSpec()
	spec.States = 10
	spec.CountiesPer = 10
	db, err := Synthesize(spec, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	for _, code := range db.Regions(County) {
		r, _ := db.Region(code)
		m := db.Market(code)
		if r.Character == Rural && len(m) > 2 {
			t.Errorf("rural county %s has %d ISPs, want <=2", code, len(m))
		}
	}
}

func TestSynthesizeErrors(t *testing.T) {
	bad := DefaultSynthSpec()
	bad.States = 0
	if _, err := Synthesize(bad, nil); err == nil {
		t.Error("zero states should error")
	}
	bad = DefaultSynthSpec()
	bad.CountryCode = ""
	if _, err := Synthesize(bad, nil); err == nil {
		t.Error("empty country code should error")
	}
	bad = DefaultSynthSpec()
	bad.UrbanFraction = 2
	if _, err := Synthesize(bad, nil); err == nil {
		t.Error("bad urban fraction should error")
	}
}

func TestSynthesizeManyISPs(t *testing.T) {
	spec := DefaultSynthSpec()
	spec.ISPs = 15 // exceeds the name-part table; names must stay unique
	db, err := Synthesize(spec, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, isp := range db.ISPs() {
		if names[isp.Name] {
			t.Errorf("duplicate ISP name %q", isp.Name)
		}
		names[isp.Name] = true
	}
}

func TestSynthesizeNilSourceAndPopFloor(t *testing.T) {
	spec := DefaultSynthSpec()
	spec.MeanCountyPop = 0 // exercises the default fallback
	db, err := Synthesize(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, code := range db.Regions(County) {
		r, _ := db.Region(code)
		if r.Population < 1000 {
			t.Errorf("county %s population %d below floor", code, r.Population)
		}
	}
}
