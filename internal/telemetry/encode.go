package telemetry

import (
	"encoding/json"
	"math"
	"reflect"
	"strconv"
	"unicode/utf8"
)

// AppendJSON appends the event's JSON object to dst:
//
//	{"k":K,"t":At,"link":Link,"kind":Kind,"f":{...},"check":Check,"msg":Msg}
//
// with "f" omitted when the payload is empty and "check"/"msg" when empty.
// The bytes are exactly what encoding/json writes for that layout with a
// map[string]float64 payload — sorted keys, its 'f'/'e' float rule, HTML-safe
// string escaping — which is the stream format every reader expects. A NaN
// or infinite value is an error (the same *json.UnsupportedValueError
// encoding/json reports), and dst comes back unextended.
func (ev Event) AppendJSON(dst []byte) ([]byte, error) {
	start := len(dst)
	dst = append(dst, `{"k":`...)
	dst = strconv.AppendInt(dst, ev.K, 10)
	dst = append(dst, `,"t":`...)
	dst = strconv.AppendInt(dst, int64(ev.At), 10)
	dst = append(dst, `,"link":`...)
	dst = strconv.AppendInt(dst, int64(ev.Link), 10)
	dst = append(dst, `,"kind":`...)
	dst = appendString(dst, ev.Kind)
	if f := ev.Fields; f.Len() > 0 {
		dst = append(dst, `,"f":{`...)
		for i, v := range f.vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return dst[:start], &json.UnsupportedValueError{
					Value: reflect.ValueOf(v),
					Str:   strconv.FormatFloat(v, 'g', -1, 64),
				}
			}
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, f.keys.enc[f.keys.encStart[i]:f.keys.encStart[i+1]]...)
			dst = appendFloat(dst, v)
		}
		dst = append(dst, '}')
	}
	if ev.Check != "" {
		dst = append(dst, `,"check":`...)
		dst = appendString(dst, ev.Check)
	}
	if ev.Msg != "" {
		dst = append(dst, `,"msg":`...)
		dst = appendString(dst, ev.Msg)
	}
	return append(dst, '}'), nil
}

// MarshalJSON implements json.Marshaler through AppendJSON.
func (ev Event) MarshalJSON() ([]byte, error) { return ev.AppendJSON(nil) }

// appendFloat formats a finite float64 as encoding/json does: like strconv's
// shortest 'f' form, switching to 'e' below 1e-6 and from 1e21 on, with the
// exponent's leading zero dropped (1e-07 becomes 1e-7).
func appendFloat(dst []byte, v float64) []byte {
	format := byte('f')
	if abs := math.Abs(v); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, v, format, -1, 64)
	if format == 'e' {
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst
}

const hexDigits = "0123456789abcdef"

// appendString appends s as a JSON string with encoding/json's default
// (HTML-safe) escaping: quote, backslash and control bytes escaped, <, > and
// & as \u003c \u003e \u0026, invalid UTF-8 as \ufffd, and U+2028/U+2029
// escaped.
func appendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= 0x20 && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
		case c == '\u2028' || c == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}
