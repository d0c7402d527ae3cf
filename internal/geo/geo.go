// Package geo models the geographic and market structure the IQB
// framework scores over: a hierarchy of regions (country → state →
// county), each with a population, an urban/rural character, and a set of
// ISPs with market shares and access-technology mixes.
//
// The paper scores regions using measurements "collected from users in
// that region"; this package supplies the synthetic population of users
// those measurements come from.
package geo

import (
	"fmt"
	"sort"
	"strings"
)

// Level is a region's depth in the hierarchy.
type Level int

// Region hierarchy levels, top down.
const (
	Country Level = iota
	State
	County
)

// String names the level.
func (l Level) String() string {
	switch l {
	case Country:
		return "country"
	case State:
		return "state"
	case County:
		return "county"
	default:
		return fmt.Sprintf("Level(%d)", int(l))
	}
}

// Character classifies how built-up a region is; it drives the access
// technology mix.
type Character int

// Region characters.
const (
	Urban Character = iota
	Suburban
	Rural
)

// String names the character.
func (c Character) String() string {
	switch c {
	case Urban:
		return "urban"
	case Suburban:
		return "suburban"
	case Rural:
		return "rural"
	default:
		return fmt.Sprintf("Character(%d)", int(c))
	}
}

// Region is a node in the geographic hierarchy. Codes are hierarchical
// and slash-separated, e.g. "XA/XA-03/XA-03-017".
type Region struct {
	Code       string
	Name       string
	Level      Level
	Character  Character
	Population int
	Parent     string   // parent code, empty for the country
	Children   []string // child codes, sorted
}

// ISP is an internet service provider operating in one or more regions.
type ISP struct {
	ASN  uint32
	Name string
}

// MarketShare is one ISP's presence in a region.
type MarketShare struct {
	ASN   uint32
	Share float64 // fraction of subscribers in the region, sums to ~1
}

// DB is an immutable geography: regions, ISPs, and per-region markets.
type DB struct {
	regions map[string]*Region
	isps    map[uint32]*ISP
	markets map[string][]MarketShare // region code -> shares
	root    string
}

// NewDB returns an empty database. Use AddRegion/AddISP/SetMarket or
// Synthesize to populate it.
func NewDB() *DB {
	return &DB{
		regions: make(map[string]*Region),
		isps:    make(map[uint32]*ISP),
		markets: make(map[string][]MarketShare),
	}
}

// AddRegion inserts a region. The parent, if any, must already exist.
func (db *DB) AddRegion(r Region) error {
	if r.Code == "" {
		return fmt.Errorf("geo: region needs a code")
	}
	if _, dup := db.regions[r.Code]; dup {
		return fmt.Errorf("geo: duplicate region %q", r.Code)
	}
	if r.Parent == "" {
		if db.root != "" {
			return fmt.Errorf("geo: second root region %q (root is %q)", r.Code, db.root)
		}
		db.root = r.Code
	} else {
		p, ok := db.regions[r.Parent]
		if !ok {
			return fmt.Errorf("geo: region %q references missing parent %q", r.Code, r.Parent)
		}
		p.Children = append(p.Children, r.Code)
		sort.Strings(p.Children)
	}
	cp := r
	db.regions[r.Code] = &cp
	return nil
}

// AddISP registers an ISP.
func (db *DB) AddISP(isp ISP) error {
	if isp.ASN == 0 {
		return fmt.Errorf("geo: ISP needs a non-zero ASN")
	}
	if _, dup := db.isps[isp.ASN]; dup {
		return fmt.Errorf("geo: duplicate ASN %d", isp.ASN)
	}
	cp := isp
	db.isps[isp.ASN] = &cp
	return nil
}

// SetMarket records the ISP market shares for a region. Shares must be
// positive and reference registered ISPs; they are normalized to sum to 1.
func (db *DB) SetMarket(regionCode string, shares []MarketShare) error {
	if _, ok := db.regions[regionCode]; !ok {
		return fmt.Errorf("geo: market for unknown region %q", regionCode)
	}
	if len(shares) == 0 {
		return fmt.Errorf("geo: empty market for region %q", regionCode)
	}
	total := 0.0
	for _, s := range shares {
		if _, ok := db.isps[s.ASN]; !ok {
			return fmt.Errorf("geo: market references unknown ASN %d", s.ASN)
		}
		if s.Share <= 0 {
			return fmt.Errorf("geo: non-positive share %v for ASN %d", s.Share, s.ASN)
		}
		total += s.Share
	}
	norm := make([]MarketShare, len(shares))
	for i, s := range shares {
		norm[i] = MarketShare{ASN: s.ASN, Share: s.Share / total}
	}
	sort.Slice(norm, func(i, j int) bool { return norm[i].ASN < norm[j].ASN })
	db.markets[regionCode] = norm
	return nil
}

// Region returns a region by code.
func (db *DB) Region(code string) (*Region, bool) {
	r, ok := db.regions[code]
	return r, ok
}

// Market returns the market shares for a region, or nil if unset.
func (db *DB) Market(code string) []MarketShare { return db.markets[code] }

// Root returns the country-level region code.
func (db *DB) Root() string { return db.root }

// Regions returns all region codes at the given level, sorted.
func (db *DB) Regions(level Level) []string {
	var out []string
	for code, r := range db.regions {
		if r.Level == level {
			out = append(out, code)
		}
	}
	sort.Strings(out)
	return out
}

// AllRegions returns every region code, sorted.
func (db *DB) AllRegions() []string {
	out := make([]string, 0, len(db.regions))
	for code := range db.regions {
		out = append(out, code)
	}
	sort.Strings(out)
	return out
}

// ISPs returns all registered ISPs sorted by ASN.
func (db *DB) ISPs() []ISP {
	out := make([]ISP, 0, len(db.isps))
	for _, isp := range db.isps {
		out = append(out, *isp)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ASN < out[j].ASN })
	return out
}

// Validate checks structural invariants: a single root, resolvable
// parents, populations that do not exceed the parent's, and markets that
// sum to 1.
func (db *DB) Validate() error {
	if db.root == "" {
		return fmt.Errorf("geo: no root region")
	}
	for code, r := range db.regions {
		if r.Population < 0 {
			return fmt.Errorf("geo: region %q has negative population", code)
		}
		if r.Parent != "" {
			p, ok := db.regions[r.Parent]
			if !ok {
				return fmt.Errorf("geo: region %q has missing parent %q", code, r.Parent)
			}
			if p.Level >= r.Level {
				return fmt.Errorf("geo: region %q level %v not below parent level %v", code, r.Level, p.Level)
			}
		}
	}
	for code, shares := range db.markets {
		total := 0.0
		for _, s := range shares {
			total += s.Share
		}
		if total < 0.999 || total > 1.001 {
			return fmt.Errorf("geo: market for %q sums to %v", code, total)
		}
	}
	return nil
}

// String summarizes the database.
func (db *DB) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "geo.DB{root=%s regions=%d isps=%d}", db.root, len(db.regions), len(db.isps))
	return b.String()
}
