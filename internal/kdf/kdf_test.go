package kdf

import (
	"bytes"
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"
	"testing/quick"
)

func TestExpandDeterministic(t *testing.T) {
	key := []byte("0123456789abcdef")
	a := Expand(key, []byte("cloud"), 336)
	b := Expand(key, []byte("cloud"), 336)
	if !bytes.Equal(a, b) {
		t.Error("Expand is not deterministic")
	}
}

func TestExpandLength(t *testing.T) {
	key := []byte("0123456789abcdef")
	for _, l := range []int{1, 31, 32, 33, 64, 336, 1000} {
		out := Expand(key, []byte("x"), l)
		if len(out) != l {
			t.Errorf("Expand(..., %d) returned %d bytes", l, len(out))
		}
	}
}

func TestExpandKeySeparation(t *testing.T) {
	k1 := []byte("0123456789abcdef")
	k2 := []byte("0123456789abcdeg")
	if bytes.Equal(Expand(k1, []byte("w"), 64), Expand(k2, []byte("w"), 64)) {
		t.Error("different keys produced identical output")
	}
}

func TestExpandInputSeparation(t *testing.T) {
	key := []byte("0123456789abcdef")
	if bytes.Equal(Expand(key, []byte("alpha"), 64), Expand(key, []byte("beta"), 64)) {
		t.Error("different inputs produced identical output")
	}
}

// Prefix consistency: a longer expansion begins with the shorter one, so the
// scheme can derive differently-sized indices from the same trapdoor source.
func TestExpandPrefixConsistency(t *testing.T) {
	key := []byte("0123456789abcdef")
	short := Expand(key, []byte("kw"), 40)
	long := Expand(key, []byte("kw"), 400)
	if !bytes.Equal(short, long[:40]) {
		t.Error("shorter expansion is not a prefix of longer expansion")
	}
}

func TestExpandStringMatchesExpand(t *testing.T) {
	key := []byte("0123456789abcdef")
	if !bytes.Equal(ExpandString(key, "word", 99), Expand(key, []byte("word"), 99)) {
		t.Error("ExpandString disagrees with Expand")
	}
}

func TestExpandPanics(t *testing.T) {
	cases := []struct {
		name string
		fn   func()
	}{
		{"zero length", func() { Expand([]byte("k"), nil, 0) }},
		{"negative length", func() { Expand([]byte("k"), nil, -5) }},
		{"empty key", func() { Expand(nil, []byte("x"), 8) }},
	}
	for _, tc := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", tc.name)
				}
			}()
			tc.fn()
		}()
	}
}

// Distinct (key, word) pairs should essentially never collide on 32-byte
// outputs; quick-check a sample.
func TestExpandNoObservedCollisions(t *testing.T) {
	seen := make(map[string]string)
	key := make([]byte, KeySize)
	if _, err := rand.Read(key); err != nil {
		t.Fatal(err)
	}
	f := func(word string) bool {
		out := string(Expand(key, []byte(word), 32))
		if prev, ok := seen[out]; ok {
			return prev == word
		}
		seen[out] = word
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Rough uniformity: over many expansions the ones-density of the output
// should be close to 1/2 per bit.
func TestExpandBitBalance(t *testing.T) {
	key := []byte("0123456789abcdef")
	ones, total := 0, 0
	for i := 0; i < 200; i++ {
		out := Expand(key, []byte{byte(i)}, 64)
		for _, b := range out {
			for j := 0; j < 8; j++ {
				ones += int(b >> uint(j) & 1)
				total++
			}
		}
	}
	frac := float64(ones) / float64(total)
	if frac < 0.48 || frac > 0.52 {
		t.Errorf("ones fraction %.4f outside [0.48, 0.52]", frac)
	}
}

// Known-answer vectors: 336-byte expansions (the scheme's l) under the key
// "0123456789abcdef". Every shorter length must be their prefix, so the
// vectors pin l ∈ {1, 31, 32, 33, 336} — one byte, a part block, exactly one
// block, one byte past it, and the full expansion.
func TestExpandKnownAnswers(t *testing.T) {
	key := []byte("0123456789abcdef")
	vectors := []struct {
		word string
		hex  string
	}{
		{"", "" +
			"213911f25a5699072c09d0c941311783eb653315963236d61aa6909717f3e62c" +
			"efa25bfb5b0b9bbb0f34b730995054d2f2aa6217cdba82758a1f87268932d700" +
			"1a25bca58d2380952e06dfc6a43bf991a107bd237cf91f2093c67f99d5eeeea7" +
			"1ae1c57fd260d142a6c3964ef0edb8fac9e9f2185f387378372f84d442a55c5e" +
			"21057cf8c256e131c613ad6f8b3439dba2776f9e1dd54c4675d45c16d86c86d5" +
			"bd9abf03b87988ac225d6a88f063d487e81cfb5c2d10515a1f947b0202ce00bd" +
			"652c42ece41127c3e79d3f77fb55ccf9a392433d06b69f5eedda799785d20c06" +
			"c6c48b26ed58ceab6e98ecb60790fd34800cc0074f4fca9a940b692eb38ccbe4" +
			"370b9647adf5b75a6de739030d676528d320752efc9181bfce70327efd8d696f" +
			"84b06ed78d9ab4e119fe4cba7e04df901b5ea958fd4ae8531d88d3d4923e6046" +
			"efa7b60d0ab740355748e141154cfc4d"},
		{"cloud", "" +
			"80e5635d7e11b0c32dd5ad8eb9fa238f84a98052362d15d4b1cb816c4f59a307" +
			"74d8bc89ea1c19e0d1b64d1f020af01ef4d8c23b89a534ba38c783210cd80448" +
			"37c7a2fcb1953fd71b90c6d944d43ccc64d7429ff29bbdd70f962e590cec7ccd" +
			"3cfafcbcdd029898817aaa2556687b58de92767ce3b3f38a10c6ab70ebf33058" +
			"cdabb02bfc98a308b7408e808454141ff9eab4cb34616915584bea3d0f1eb7d1" +
			"0f0d48a314fce2478c872bb6d364ed908293779d2c8b1b99209381f759bf665f" +
			"fb5e3847647ff2647d51abc52e0533c93000ef6c92a1e317272d71b2d58dce38" +
			"bb79d8499de4d32d2c7914abb2dfd04a6c075532015125666b77a615005a22e0" +
			"d6d0fecc9d55070ca7d05073eb9479c09c93ed9d8512a201c2e7d5aa5a3da544" +
			"84a4346d2bea3793f3f317ed1f39f0d54ab74bb7a4f2a7bd52cbcbb153a07dc6" +
			"14230228dc2ba0c86635b11640f2b209"},
		{"şifreli-arama", "" +
			"8e6dc89db09b183e13bc01b79cbc621a71708825fc97f6f4f5f3f673454e26d2" +
			"59b07d5af5678e2992bce021e25aef28a6bdcce85dff530b1b396d2ab9463622" +
			"871badc3c6148a9bb9a45dc6695dfeb5ef31249517858d267d0371acc6fd1939" +
			"5d525010c3f426d41d4bfd4fb9082fb691bc5962c3374328d17c7f556b02a8da" +
			"137d2e550e51b8e2bb4c6065f4c3b9feed983526f9def526ced83e5aa3978f2b" +
			"1be2d04ada226767f26074c1761d8a0a24c9e415f4a48d7ddb66e88ce482f454" +
			"82e6d271534653c3f0043a378c658c990e435b521ebfedb2aceb9d68bc18d9e3" +
			"6dfbfdc78361d92a789a05a137bfacb163366c3b532512da77c73aa3670175ef" +
			"1196db9d885913043da403deba3dcf2214b19abe6864c9a2c6d017cef668c4dc" +
			"985965afaed51700b62a350e9b52b26f3905457054359984407a8d2428078c06" +
			"eb2abada29569fd7cf36773955cb8e25"},
	}
	for _, v := range vectors {
		want, err := hex.DecodeString(v.hex)
		if err != nil || len(want) != 336 {
			t.Fatalf("%q: malformed vector (%d bytes, %v)", v.word, len(want), err)
		}
		for _, l := range []int{1, 31, 32, 33, 336} {
			if got := ExpandString(key, v.word, l); !bytes.Equal(got, want[:l]) {
				t.Errorf("ExpandString(%q, %d) = %x, want %x", v.word, l, got, want[:l])
			}
		}
	}
}

// referenceExpand is the construction spelled out with a fresh HMAC per
// block, the form Expand's keyed-state reuse must agree with.
func referenceExpand(key, data []byte, l int) []byte {
	var out []byte
	for c := uint32(0); len(out) < l; c++ {
		mac := hmac.New(sha256.New, key)
		mac.Write(data)
		mac.Write(binary.BigEndian.AppendUint32(nil, c))
		out = mac.Sum(out)
	}
	return out[:l]
}

func TestExpandMatchesFreshHMACPerBlock(t *testing.T) {
	keys := [][]byte{[]byte("0123456789abcdef"), []byte("k"), bytes.Repeat([]byte{0xa5}, 100)}
	words := []string{"", "a", "cloud", "şifreli-arama", "kw00042"}
	for _, key := range keys {
		for _, w := range words {
			for l := 1; l <= 400; l += 13 {
				if got, want := Expand(key, []byte(w), l), referenceExpand(key, []byte(w), l); !bytes.Equal(got, want) {
					t.Fatalf("Expand(key %x, %q, %d) disagrees with the per-block reference", key, w, l)
				}
			}
		}
	}
}

func BenchmarkExpand336(b *testing.B) {
	key := []byte("0123456789abcdef")
	word := []byte("confidential")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Expand(key, word, 336)
	}
}
