/*
 * Licence header spanning
 * several lines.
 */
package com.example.lexer;

import java.util.*;

/** Javadoc for the class. */
public final class Sample<T extends Comparable<T>> implements Iterable<T> {
    private static final long MASK = 0x1F_FFL; // hex with underscore and suffix
    private static final double EPS = 1.5e-3d;
    private final List<T> items = new ArrayList<>();
    private int count = 0, shift = 3;

    @Override
    public Iterator<T> iterator() { return items.iterator(); }

    /* inline block */ public int next(int x) { /* another */ return x >>> shift; }

    public String quote(char c) {
        String s = "tab\t and \"escaped\" quote // not a comment";
        char q = '\'', b = '\\';
        String block = """
            text block body
            """;
        s += "unterminated
        return s + c + q + b + block;
    }

    int fold(int[] xs) {
	int acc = 0;
	for (int i = 0; i < xs.length; i++) {
	    acc ^= xs[i] << 2;
	    acc >>>= 1; acc |= MASK & i;
	    if (acc >= 10 && acc != 42 || !(acc <= 0)) { continue; }
	    else switch (acc % 3) { case 0: acc--; break; default: acc++; }
	}
	do { acc /= 2; } while (acc > 1); /* open block comment
	still in the comment
	*/ return acc == 0 ? -1 : acc;
    }

    static <R> R apply(java.util.function.Function<Integer, R> f) {
        return f.apply(7);  // lambda below
    }

    Runnable r = () -> System.out.println(String::valueOf);
    int café = 1; // non-ASCII identifier
}
