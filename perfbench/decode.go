package main

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"
)

// decodeAlloc parses a GET /v1/allocation body into a wireAlloc. It reads
// only that reply's shape and skips fields it does not know. At 100k rows it
// is several times faster than encoding/json, whose decode would otherwise
// take most of the closed loop's time between rounds; decode_test.go checks
// that both agree.
func decodeAlloc(data []byte) (*wireAlloc, error) {
	p := &parser{b: data}
	a := &wireAlloc{}
	err := p.object(func(key string) error {
		var err error
		switch key {
		case "round":
			a.Round, err = p.int()
		case "num_jobs":
			a.NumJobs, err = p.int()
		case "stale_jobs":
			a.StaleJobs, err = p.int()
		case "jobs":
			a.Jobs = make(map[string]wireRow, a.NumJobs) // num_jobs comes first
			err = p.object(func(id string) error {
				r, err := p.row()
				a.Jobs[id] = r
				return err
			})
		default:
			err = p.skip()
		}
		return err
	})
	if err == nil {
		p.ws()
		if p.i != len(p.b) {
			err = p.fail("trailing data")
		}
	}
	return a, err
}

type parser struct {
	b []byte
	i int
}

func (p *parser) fail(what string) error {
	return fmt.Errorf("allocation JSON: %s at byte %d", what, p.i)
}

func (p *parser) ws() {
	for p.i < len(p.b) && (p.b[p.i] == ' ' || p.b[p.i] == '\n' || p.b[p.i] == '\t' || p.b[p.i] == '\r') {
		p.i++
	}
}

// peek skips whitespace and returns the next byte (0 at the end).
func (p *parser) peek() byte {
	p.ws()
	if p.i >= len(p.b) {
		return 0
	}
	return p.b[p.i]
}

func (p *parser) expect(c byte) error {
	if p.peek() != c {
		return p.fail(fmt.Sprintf("want %q", c))
	}
	p.i++
	return nil
}

// object parses {"key": value, ...}, calling fn with the parser positioned
// at each value; fn must consume it.
func (p *parser) object(fn func(key string) error) error {
	if err := p.expect('{'); err != nil {
		return err
	}
	if p.peek() == '}' {
		p.i++
		return nil
	}
	for {
		key, err := p.str()
		if err != nil {
			return err
		}
		if err := p.expect(':'); err != nil {
			return err
		}
		if err := fn(key); err != nil {
			return err
		}
		switch p.peek() {
		case ',':
			p.i++
		case '}':
			p.i++
			return nil
		default:
			return p.fail("want ',' or '}'")
		}
	}
}

func (p *parser) str() (string, error) {
	if err := p.expect('"'); err != nil {
		return "", err
	}
	start, escaped := p.i, false
	for ; p.i < len(p.b); p.i++ {
		switch p.b[p.i] {
		case '\\':
			escaped = true
			p.i++
		case '"':
			p.i++
			if !escaped {
				return string(p.b[start : p.i-1]), nil
			}
			var s string
			err := json.Unmarshal(p.b[start-1:p.i], &s)
			return s, err
		}
	}
	return "", p.fail("unterminated string")
}

func (p *parser) num() (float64, error) {
	p.ws()
	start := p.i
	for p.i < len(p.b) {
		c := p.b[p.i]
		if (c < '0' || c > '9') && c != '-' && c != '+' && c != '.' && c != 'e' && c != 'E' {
			break
		}
		p.i++
	}
	v, err := strconv.ParseFloat(string(p.b[start:p.i]), 64)
	if err != nil {
		return 0, p.fail("bad number")
	}
	return v, nil
}

func (p *parser) int() (int, error) {
	v, err := p.num()
	if err == nil && (v != math.Trunc(v) || math.Abs(v) > 1<<53) {
		err = p.fail("want an integer")
	}
	return int(v), err
}

// literal consumes word (true, false or null) if it comes next.
func (p *parser) literal(word string) bool {
	p.ws()
	if p.i+len(word) <= len(p.b) && string(p.b[p.i:p.i+len(word)]) == word {
		p.i += len(word)
		return true
	}
	return false
}

func (p *parser) row() (wireRow, error) {
	var r wireRow
	err := p.object(func(key string) error {
		var err error
		switch key {
		case "id":
			r.ID, err = p.int()
		case "effective_throughput":
			r.EffThr, err = p.num()
		case "stale":
			switch {
			case p.literal("true"):
				r.Stale = true
			case p.literal("false"):
			default:
				err = p.fail("want a boolean")
			}
		case "x":
			if p.literal("null") {
				return nil
			}
			r.X = make([]float64, 0, 4)
			err = p.array(func() error {
				v, err := p.num()
				r.X = append(r.X, v)
				return err
			})
		default:
			err = p.skip()
		}
		return err
	})
	return r, err
}

func (p *parser) array(fn func() error) error {
	if err := p.expect('['); err != nil {
		return err
	}
	if p.peek() == ']' {
		p.i++
		return nil
	}
	for {
		if err := fn(); err != nil {
			return err
		}
		switch p.peek() {
		case ',':
			p.i++
		case ']':
			p.i++
			return nil
		default:
			return p.fail("want ',' or ']'")
		}
	}
}

// skip consumes one value of any kind.
func (p *parser) skip() error {
	switch c := p.peek(); {
	case c == '{':
		return p.object(func(string) error { return p.skip() })
	case c == '[':
		return p.array(p.skip)
	case c == '"':
		_, err := p.str()
		return err
	case p.literal("true"), p.literal("false"), p.literal("null"):
		return nil
	default:
		_, err := p.num()
		return err
	}
}
