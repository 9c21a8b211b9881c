// Package a seeds aliasing bugs in snapshot-family methods alongside
// the correct deep-copy idioms.
package a

type Inner struct{ Vals []int }

type S struct {
	Data []int
	M    map[int]int
	In   Inner
}

func (s *S) WarmState() *S {
	c := &S{
		Data: s.Data, // want "composite-literal field aliases"
	}
	c.M = s.M // want "copied by assignment aliases the source"
	return c
}

func (s *S) CopyFrom(o *S) {
	*s = *o // want "whole-struct assignment shares"
}

func (s *S) State() []int {
	return s.Data // want "returns a reference-typed view of s"
}

// SetState deep-copies properly: call results and append into an
// existing buffer are not aliases.
func (s *S) SetState(vals []int) {
	s.Data = append(s.Data[:0], vals...)
	m := make(map[int]int, len(vals))
	for k, v := range s.M {
		m[k] = v
	}
	s.M = m
}

// Alias is not in the snapshot family; it may hand out views.
func (s *S) Alias() []int { return s.Data }

type Pages struct {
	Pages map[int][]byte
	pages map[int]*[16]byte
}

// State aliases through a range variable: p is bound over the
// receiver's map, so p[:] is a view of live storage.
func (m *Pages) State() Pages {
	st := Pages{Pages: make(map[int][]byte, len(m.pages))}
	for pn, p := range m.pages {
		st.Pages[pn] = p[:] // want "copied by assignment aliases the source"
	}
	return st
}

type Shared struct {
	Pages map[int][]byte
}

// State deliberately shares the page map (copy-on-write protocol).
func (p *Shared) State() *Shared {
	c := &Shared{}
	c.Pages = p.Pages //rix:shared
	return c
}

// CopyFrom hands SetState a read-only view of its source.
func (p *Shared) CopyFrom(o *Shared) {
	p.SetState(Shared{Pages: o.Pages}) //rix:shared
}

// SetState copies out of its argument.
func (p *Shared) SetState(st Shared) {
	p.Pages = make(map[int][]byte, len(st.Pages))
	for k, v := range st.Pages {
		p.Pages[k] = append([]byte(nil), v...)
	}
}

// Clone left the snapshot family: it may hand out views.
func (p *Shared) Clone() *Shared { return &Shared{Pages: p.Pages} }
