import pytest
from hypothesis import given, strategies as st

from archive_rank.urls import (
    TOKEN_DELIMITERS,
    NormalizedUrl,
    SuffixTable,
    UrlError,
    core_url,
    domain_of,
    normalize,
    tokenize_url,
    url_depth,
)


class TestNormalize:
    def test_host_case_only(self):
        n = normalize("HTTP://Spiegel.DE/Thema/")
        assert n.scheme == "http"
        assert n.authority == "spiegel.de"
        assert n.path == "/Thema/"

    def test_empty_path_becomes_root(self):
        assert normalize("http://a.de").path == "/"

    def test_unreserved_percent_escapes_decoded(self):
        assert normalize("http://a.de/x%41").path == "/xA"
        # reserved escapes stay encoded
        assert normalize("http://a.de/x%2Fy").path == "/x%2Fy"

    def test_default_port_dropped(self):
        assert normalize("http://a.de:80/x").authority == "a.de"
        assert normalize("http://a.de:8080/x").authority == "a.de:8080"

    def test_scheme_less_host_first_strings(self):
        assert str(normalize("spiegel.de/thema/x")) == "http://spiegel.de/thema/x"

    def test_whitespace_in_path_is_encoded(self):
        # found by hypothesis: a trailing space survived into the canonical
        # form, where the next parse stripped it
        n = normalize("http://0.de/ ?")
        assert n.path == "/%20"
        assert normalize(str(n)) == n

    @pytest.mark.parametrize(
        "raw, canonical",
        [
            ("http://h.de/a\x0c#f", "http://h.de/a%0C"),
            ("http://h.de/a\x0b?q", "http://h.de/a%0B?q"),
            ("http://h.de/?q\u3000#f", "http://h.de/?q%E3%80%80"),
        ],
    )
    def test_any_whitespace_is_encoded_as_utf8(self, raw, canonical):
        # str.strip() takes these, so a raw one at the end of the canonical
        # form would be lost by the next parse
        assert str(normalize(raw)) == canonical
        assert str(normalize(canonical)) == canonical

    def test_fragment_dropped(self):
        assert str(normalize("http://a.de/x#frag")) == "http://a.de/x"

    @pytest.mark.parametrize("bad", ["", "   ", "http://", "mailto:x@y.de", "http://[::1/x", "dns:a.de"])
    def test_unparseable_raises_with_input_named(self, bad):
        with pytest.raises(UrlError) as err:
            normalize(bad)
        assert repr(bad) in str(err.value)


@st.composite
def raw_urls(draw):
    host_label = st.text(alphabet="abcz09", min_size=1, max_size=5)
    host = ".".join(draw(st.lists(host_label, min_size=1, max_size=3))) + ".de"
    segs = draw(st.lists(st.text(alphabet="aB9-_%41. ", min_size=0, max_size=6), max_size=4))
    # whitespace (str.isspace) beyond space, tab, CR and LF, which urlsplit
    # keeps and str.strip() takes
    space = st.sampled_from(["", "\x0b", "\x0c", "\x1c", "\x85", "\xa0", "\u2003", "\u3000"])
    path = "/" + "/".join(segs) + draw(space)
    query = draw(st.one_of(st.none(), st.text(alphabet="ab=&+9", max_size=8)))
    url = f"http://{host}{path}"
    if query is not None:
        url += "?" + query + draw(space)
    return url + draw(st.sampled_from(["", "#f"]))


@st.composite
def bracketed_urls(draw):
    """URLs whose authority holds a bracketed host: IPv6 and IPvFuture
    literals and arbitrary text, with stray brackets, userinfo and ports."""
    hexdig = st.text(alphabet="0123456789abcdefABCDEF", min_size=1, max_size=3)
    future = st.builds(
        lambda v, rest: f"v{v}.{rest}", hexdig, st.text(alphabet="az09-._~!$&'()*+,;=:", min_size=1, max_size=8)
    )
    literal = draw(st.one_of(st.ip_addresses(v=6).map(str), future, st.text(alphabet="v1aF.:[]@%x!", max_size=8)))
    noise = st.text(alphabet="ab[]@:.%", max_size=4)
    port = draw(st.sampled_from(["", ":", ":80", ":8080", ":x"]))
    path = draw(st.sampled_from(["", "/", "/p", "/p?q=1", "#f"]))
    return f"http://{draw(noise)}[{literal}]{draw(noise)}{port}{path}"


class TestProperties:
    @given(raw_urls())
    def test_normalize_idempotent(self, raw):
        try:
            once = normalize(raw)
        except UrlError:
            return
        assert normalize(str(once)) == once

    @given(raw_urls())
    def test_core_url_idempotent_and_depth_stable(self, raw):
        try:
            n = normalize(raw)
        except UrlError:
            return
        c = core_url(n)
        assert core_url(c) == c
        assert url_depth(c) == url_depth(n)

    @given(raw_urls())
    def test_tokens_contain_no_delimiters_or_empties(self, raw):
        try:
            n = normalize(raw)
        except UrlError:
            return
        for token in tokenize_url(n):
            assert token
            assert not any(d in token for d in TOKEN_DELIMITERS)


class TestBracketedHosts:
    @pytest.mark.parametrize(
        "raw, canonical",
        [
            ("http://[v1.x]/", "http://[v1.x]/"),
            ("http://[vA.b:c]:8080/p", "http://[va.b:c]:8080/p"),
            ("http://[::1]:80/p", "http://[::1]/p"),
            ("http://[2001:DB8::1]/", "http://[2001:db8::1]/"),
            ("http://a[::1]/", "http://[::1]/"),  # urlsplit reads the host inside the brackets
            ("http://[::1]@h.de/", "http://h.de/"),
        ],
    )
    def test_literal_keeps_its_brackets(self, raw, canonical):
        n = normalize(raw)
        assert str(n) == canonical
        assert normalize(str(n)) == n

    def test_host_is_the_literal(self):
        assert normalize("http://[v1.x]/").host == "v1.x"
        assert normalize("http://[::1]:8080/").host == "::1"

    @pytest.mark.parametrize("bad", ["http://[::1]@[:/", "http://[v1.x]@].x/", "http://[v1.a@b]/"])
    def test_host_behind_a_bracketed_userinfo_is_checked(self, bad):
        # urlsplit checks only the first bracketed part of the netloc
        with pytest.raises(UrlError):
            normalize(bad)

    @given(bracketed_urls())
    def test_normalize_idempotent(self, raw):
        try:
            once = normalize(raw)
        except UrlError:
            return
        assert normalize(str(once)) == once


class TestCoreUrl:
    def test_query_removed(self):
        assert str(core_url(normalize("http://a.de/x?q=1"))) == "http://a.de/x"

    def test_identity_without_query(self):
        n = normalize("http://a.de/x")
        assert core_url(n) == n

    def test_root_with_query(self):
        assert str(core_url(normalize("http://a.de/?s=angela+merkel"))) == "http://a.de/"


class TestTokenize:
    def test_path_tokens(self):
        assert tokenize_url(normalize("spiegel.de/thema/angela_merkel")) == [
            "spiegel", "de", "thema", "angela", "merkel",
        ]

    def test_empty_segments_dropped(self):
        assert tokenize_url(normalize("a.de/")) == ["a", "de"]

    def test_dash_and_digit_tokens(self):
        assert tokenize_url(normalize("kino.de/star/bruce-willis/8453")) == [
            "kino", "de", "star", "bruce", "willis", "8453",
        ]

    def test_query_tokens_visible(self):
        assert "merkel" in tokenize_url(normalize("http://a.de/s?q=merkel"))


class TestDepth:
    @pytest.mark.parametrize(
        "url,depth",
        [
            ("http://volkswagen.de/de.html", 1),
            ("http://a.de/", 0),
            ("http://w.de/koepfe-der-wirtschaft/angela-merkel/5288044.html", 3),
        ],
    )
    def test_examples(self, url, depth):
        assert url_depth(normalize(url)) == depth


class TestDomains:
    def test_www_stripped_to_registrable(self):
        assert domain_of(normalize("http://www.spiegel.de/x")) == "spiegel.de"

    def test_deep_subdomains(self):
        assert domain_of(normalize("http://a.b.example.de/")) == "example.de"

    def test_ip_literal(self):
        assert domain_of(normalize("http://127.0.0.1/")) == "127.0.0.1"

    def test_two_level_suffix(self):
        assert domain_of(normalize("http://a.b.co.uk/")) == "b.co.uk"

    def test_suffix_table_from_file(self, tmp_path):
        table_file = tmp_path / "suffixes.txt"
        table_file.write_text("# comment\nde\nat\n")
        table = SuffixTable.from_file(table_file)
        assert table.registrable_domain("x.y.z.at") == "z.at"

    def test_host_equal_to_suffix(self):
        assert SuffixTable().registrable_domain("de") == "de"


def test_str_roundtrip_with_query():
    n = NormalizedUrl("http", "a.de", "/x", "q=1")
    assert str(n) == "http://a.de/x?q=1"
    assert normalize(str(n)) == n
