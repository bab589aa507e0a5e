#!/usr/bin/env python3
# Walk through the 61-feature readability representation on two snippets:
# one written to be read, one written to be endured.

import numpy as np

from codereadability import featurize, load_dictionary, load_snippet, preprocess, schema

dictionary = load_dictionary()  # bundled English wordlist backend

CLEAN = '''\
# Return the running total of the given values.
def running_total(values):
    total = 0
    for value in values:
        total += value
    return total
'''

MESSY = '''\
def rt(v):
 t=0
 for q in v:t=t+q if q else t
 return t
'''

clean = preprocess(load_snippet(CLEAN, "python", "clean"))
messy = preprocess(load_snippet(MESSY, "python", "messy"))

vec_clean = featurize(clean, d=dictionary)
vec_messy = featurize(messy, d=dictionary)

# The schema is fixed: 16 textual + 26 formatting + 4 information-theoretic
# + 15 visual entries, always in the same order.
entries = schema()
print(f"feature count: {len(entries)}")
for family in ("TF", "BWF", "PF", "DF"):
    members = [e.name for e in entries if e.family == family]
    print(f"  {family:>3}: {len(members):2d} features, e.g. {', '.join(members[:3])} ...")

print()
print(f"{'feature':<28}{'clean':>10}{'messy':>10}")
interesting = [
    "tf.cic",            # do comment words echo identifier words?
    "tf.itid_avg",       # are identifier terms real dictionary words?
    "tf.cr",             # Flesch reading ease of the comments
    "bwf.line_len_avg",
    "bwf.comment_ratio",
    "pf.entropy_avg",
    "pf.halstead_volume",
    "df.text_english",   # identifiers made of English words
    "df.sr",             # line-length regularity
]
names = [e.name for e in entries]
for name in interesting:
    i = names.index(name)
    print(f"{name:<28}{vec_clean[i]:>10.3f}{vec_messy[i]:>10.3f}")

# A degenerate snippet has no evidence at all, so every feature defaults to 0.
empty = featurize(preprocess(load_snippet("", "python", "empty")), d=dictionary)
print()
print("empty snippet is all zeros:", bool(np.all(empty == 0.0)))
