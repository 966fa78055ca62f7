package model

import (
	"hash/fnv"
	"strings"
	"unicode"
)

// Tokenizer maps text to token IDs. It is a deterministic hashed word-piece
// scheme: real LLM tokenizers are proprietary artifacts, and inference
// performance depends only on token counts, not token identity, so a
// hash-bucket vocabulary preserves everything the experiments measure while
// letting the examples run on real text.
type Tokenizer struct {
	vocabSize int
}

// NewTokenizer returns a tokenizer for the given vocabulary size.
func NewTokenizer(vocabSize int) *Tokenizer {
	return &Tokenizer{vocabSize: vocabSize}
}

// reservedTokens is the number of low IDs kept for specials (BOS/EOS/PAD).
const reservedTokens = 3

// Special token IDs.
const (
	TokenBOS = 0
	TokenEOS = 1
	TokenPad = 2
)

// Encode splits text into word and punctuation tokens and hashes each into
// the vocabulary. A BOS token is prepended.
func (t *Tokenizer) Encode(text string) []int {
	words := splitWords(text)
	out := make([]int, 0, len(words)+1)
	out = append(out, TokenBOS)
	for _, w := range words {
		out = append(out, t.tokenID(w))
	}
	return out
}

func (t *Tokenizer) tokenID(w string) int {
	h := fnv.New32a()
	h.Write([]byte(strings.ToLower(w)))
	space := t.vocabSize - reservedTokens
	if space <= 0 {
		return reservedTokens % t.vocabSize
	}
	return reservedTokens + int(h.Sum32()%uint32(space))
}

func splitWords(text string) []string {
	var words []string
	var cur strings.Builder
	flush := func() {
		if cur.Len() > 0 {
			words = append(words, cur.String())
			cur.Reset()
		}
	}
	for _, r := range text {
		switch {
		case unicode.IsLetter(r) || unicode.IsDigit(r):
			cur.WriteRune(r)
		case unicode.IsSpace(r):
			flush()
		default: // punctuation becomes its own token
			flush()
			words = append(words, string(r))
		}
	}
	flush()
	return words
}
