package pfc

import (
	"strconv"
	"strings"
)

// tokKind classifies one token of a statement line.
type tokKind int

const (
	tEOF tokKind = iota
	tName
	tInt
	tReal
	tStr
	tLogic
	tOp
)

// token is one positioned token.  Operator tokens carry a canonical name in
// text: relational operators are normalised to EQ/NE/LT/LE/GT/GE whether
// written as .EQ. or ==, and the logical operators to AND/OR/NOT/EQV/NEQV.
// pos and end are byte offsets into the line, so a run of tokens maps back to
// its exact source slice.
type token struct {
	kind     tokKind
	text     string // identifier (upper-cased), canonical operator, digits of an INTEGER, or the value of a CHARACTER literal
	pos, end int
	i        int64   // INTEGER value; 1 for .TRUE.
	r        float64 // REAL value
}

// is reports whether the token is the given operator or (upper-case) word.
func (t token) is(text string) bool {
	return (t.kind == tOp || t.kind == tName) && t.text == text
}

// dottedWords are the keywords allowed between dots: operators plus the
// logical literals.
var dottedWords = map[string]bool{
	"EQ": true, "NE": true, "LT": true, "LE": true, "GT": true, "GE": true,
	"AND": true, "OR": true, "NOT": true, "EQV": true, "NEQV": true,
	"TRUE": true, "FALSE": true,
}

// lex tokenises one statement line, appending to toks.  On an error the
// tokens before the offending character are still returned, so a statement
// label survives a line that cannot be read to its end.  Parentheses nested
// past maxExprDepth end the line here, before a hostile megabyte of them is
// turned into tokens for the expression parser to refuse.
func lex(toks []token, src string, line int) ([]token, error) {
	i := 0
	n := len(src)
	depth := 0
	for i < n {
		c := src[i]
		tok := token{pos: i}
		var err error
		switch {
		case c == ' ' || c == '\t':
			i++
			continue
		case isLetter(c):
			j := i + 1
			for j < n && isIdentChar(src[j]) {
				j++
			}
			tok.kind, tok.text = tName, strings.ToUpper(src[i:j])
			i = j
		case isDigit(c) || (c == '.' && i+1 < n && isDigit(src[i+1])):
			tok, i, err = lexNumber(src, i, line)
		case c == '.':
			word, j, ok := dottedWordAt(src, i)
			switch {
			case !ok:
				err = errf(line, "malformed dotted operator at %q", src[i:])
			case word == "TRUE":
				tok.kind, tok.i = tLogic, 1
			case word == "FALSE":
				tok.kind = tLogic
			default:
				tok.kind, tok.text = tOp, word
			}
			i = j
		case c == '\'' || c == '"':
			tok.kind = tStr
			tok.text, i, err = lexString(src, i, line)
		default:
			tok.kind = tOp
			tok.text, i = lexSymbol(src, i)
			if depth += depthStep(tok); depth > maxExprDepth {
				err = errNested(line)
			}
		}
		if err != nil {
			return toks, err
		}
		tok.end = i
		toks = append(toks, tok)
	}
	return toks, nil
}

// doubleExponent rewrites a DOUBLE PRECISION exponent letter (1D1) for
// strconv.
var doubleExponent = strings.NewReplacer("D", "E", "d", "e")

// lexNumber scans an integer or real literal starting at i.  A '.' ends the
// number when it begins a dotted operator (so 1.EQ.2 lexes as 1 .EQ. 2).
func lexNumber(src string, i, line int) (token, int, error) {
	j := i
	isReal := false
	for j < len(src) && isDigit(src[j]) {
		j++
	}
	if j < len(src) && src[j] == '.' {
		if _, _, isOp := dottedWordAt(src, j); !isOp {
			isReal = true
			j++
			for j < len(src) && isDigit(src[j]) {
				j++
			}
		}
	}
	// Exponent part: E/D with optional sign and at least one digit.
	if j < len(src) && (src[j] == 'E' || src[j] == 'e' || src[j] == 'D' || src[j] == 'd') {
		k := j + 1
		if k < len(src) && (src[k] == '+' || src[k] == '-') {
			k++
		}
		if k < len(src) && isDigit(src[k]) {
			for k < len(src) && isDigit(src[k]) {
				k++
			}
			isReal = true
			j = k
		}
	}
	text := src[i:j]
	if isReal {
		v, err := strconv.ParseFloat(doubleExponent.Replace(text), 64)
		if err != nil {
			return token{}, 0, errf(line, "bad REAL literal %q", text)
		}
		return token{kind: tReal, pos: i, r: v}, j, nil
	}
	v, err := strconv.ParseInt(text, 10, 64)
	if err != nil {
		return token{}, 0, errf(line, "bad INTEGER literal %q", text)
	}
	return token{kind: tInt, text: text, pos: i, i: v}, j, nil
}

// dottedWordAt reports whether src[i:] starts a .WORD. sequence with WORD in
// the dotted-keyword set, returning the word and the index past the closing
// dot.
func dottedWordAt(src string, i int) (string, int, bool) {
	if i >= len(src) || src[i] != '.' {
		return "", 0, false
	}
	j := i + 1
	for j < len(src) && isLetter(src[j]) {
		j++
	}
	if j >= len(src) || src[j] != '.' || j == i+1 {
		return "", 0, false
	}
	word := strings.ToUpper(src[i+1 : j])
	if !dottedWords[word] {
		return "", 0, false
	}
	return word, j + 1, true
}

// lexString scans a quoted character literal; a doubled quote is an escape.
func lexString(src string, i, line int) (string, int, error) {
	quote := src[i]
	var b strings.Builder
	j := i + 1
	for j < len(src) {
		if src[j] == quote {
			if j+1 < len(src) && src[j+1] == quote {
				b.WriteByte(quote)
				j += 2
				continue
			}
			return b.String(), j + 1, nil
		}
		b.WriteByte(src[j])
		j++
	}
	return "", 0, errf(line, "unterminated character literal")
}

// lexSymbol scans one symbolic operator, normalising modern relational forms
// to the canonical dotted names.  Any other character is a token of its own:
// the statement recogniser can still find a statement's shape around text
// (a substring's ':', a trailing '!') that no expression contains.
func lexSymbol(src string, i int) (string, int) {
	two := ""
	if i+1 < len(src) {
		two = src[i : i+2]
	}
	switch two {
	case "**":
		return "**", i + 2
	case "==":
		return "EQ", i + 2
	case "/=":
		return "NE", i + 2
	case "<=":
		return "LE", i + 2
	case ">=":
		return "GE", i + 2
	}
	switch src[i] {
	case '<':
		return "LT", i + 1
	case '>':
		return "GT", i + 1
	}
	return src[i : i+1], i + 1
}

func isLetter(c byte) bool { return (c >= 'A' && c <= 'Z') || (c >= 'a' && c <= 'z') }
func isDigit(c byte) bool  { return c >= '0' && c <= '9' }
func isIdentChar(c byte) bool {
	return isLetter(c) || isDigit(c) || c == '_' || c == '$'
}
