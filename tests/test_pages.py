"""HTML result pages: structure, escaping, and file layout."""

import html
import re
import time

import pytest

from stem_match.matching import MatchResult
from stem_match.pages import PROFILE_URL_TEMPLATE, PageError, PageStaging, write_pages
from stem_match.records import CandidateRecord
from stem_match.similarity import SimilarityBreakdown


def candidate(cid, name=None, industry="Computer Software", location="Dallas, TX"):
    return CandidateRecord(
        id=cid,
        full_name=name if name is not None else f"Candidate {cid}",
        industry=industry,
        location_raw=location,
    )


def result_for(sid, candidate_ids):
    breakdown = SimilarityBreakdown(1.0, None, None, None, 1.0, False)
    return MatchResult(sid, tuple((cid, breakdown) for cid in candidate_ids))


def candidates_by_id(*records):
    return {record.id: record for record in records}


def write(results, names, mapping, out_dir, **options):
    """``write_pages`` through a staging of ``out_dir``, closed however the call ends."""
    with PageStaging(out_dir) as staging:
        return write_pages(results, names, mapping, staging, **options)


def page_for(out_dir, result, greeting_name, mapping, **options):
    """The text of the one page ``write_pages`` writes for ``result``."""
    [path] = write([result], {result.student_id: greeting_name}, mapping, out_dir, **options)
    return path.read_text(encoding="utf-8")


_ENTRY = re.compile(r'<li><a href="([^"]*)">([^<]*)</a>')


def entries(page):
    """(profile URL, display name) of each role-model entry, in page order."""
    return [(html.unescape(url), html.unescape(name)) for url, name in _ENTRY.findall(page)]


def test_write_pages_lists_entries_in_rank_order(tmp_path):
    mapping = candidates_by_id(candidate("c2"), candidate("c1"))
    page = page_for(tmp_path, result_for("s1", ["c2", "c1"]), "Jordan Lee", mapping)
    assert [name for _, name in entries(page)] == ["Candidate c2", "Candidate c1"]
    assert entries(page)[0][0] == PROFILE_URL_TEMPLATE.format(id="c2")
    assert "<h1>Hi Jordan Lee, " in page


def test_write_pages_requires_every_ranked_candidate(tmp_path):
    with pytest.raises(PageError) as err:
        page_for(tmp_path, result_for("s1", ["ghost"]), "Jordan Lee", {})
    assert "ghost" in str(err.value)


def test_write_pages_rejects_empty_results(tmp_path):
    with pytest.raises(PageError):
        page_for(tmp_path, MatchResult("s1", ()), "Jordan Lee", {})


def test_blank_candidate_name_falls_back_to_id(tmp_path):
    mapping = candidates_by_id(candidate("c1", name="  "))
    page = page_for(tmp_path, result_for("s1", ["c1"]), "Jordan Lee", mapping)
    assert entries(page)[0][1] == "c1"


def test_page_spec_validates_urls(tmp_path):
    with pytest.raises(PageError):
        page_for(tmp_path, result_for("s1", ["c1"]), "Jordan Lee",
                 candidates_by_id(candidate("c1")), url_template="javascript:alert({id})")
    with pytest.raises(PageError):
        page_for(tmp_path, MatchResult("s1", ()), "J", {})
    assert not list(tmp_path.iterdir())


def test_rendered_page_has_one_link_per_entry_plus_survey(tmp_path):
    mapping = candidates_by_id(candidate("c1"), candidate("c2"), candidate("c3"))
    html_text = page_for(tmp_path, result_for("s1", ["c1", "c2", "c3"]), "Jordan Lee", mapping,
                         survey_url="https://example.com/survey")
    assert html_text.count("<li>") == 3
    assert html_text.count("<a href=") == 4  # three profiles + the survey
    assert "https://example.com/survey" in html_text
    assert html_text.startswith("<!DOCTYPE html>")


def test_rendered_page_without_survey_has_no_survey_link(tmp_path):
    mapping = candidates_by_id(candidate("c1"))
    html_text = page_for(tmp_path, result_for("s1", ["c1"]), "Jordan Lee", mapping)
    assert html_text.count("<a href=") == 1
    assert 'class="survey"' not in html_text


def test_everything_user_controlled_is_escaped(tmp_path):
    mapping = candidates_by_id(
        candidate("c1", name='<script>alert("x")</script>', industry='A & B "quoted"')
    )
    html_text = page_for(tmp_path, result_for("s1", ["c1"]), "Sam <b>Bold</b>", mapping)
    assert "<script>" not in html_text
    assert "&lt;script&gt;" in html_text
    assert "<b>Bold</b>" not in html_text
    assert "A &amp; B" in html_text


def test_render_is_deterministic(tmp_path):
    mapping = candidates_by_id(candidate("c1"), candidate("c2"))
    result = result_for("s1", ["c1", "c2"])
    pages = [page_for(tmp_path / name, result, "Jordan Lee", mapping,
                      survey_url="https://example.com/s") for name in ("one", "two")]
    assert pages[0] == pages[1]


def test_write_pages_one_file_per_student(tmp_path):
    mapping = candidates_by_id(candidate("c1"), candidate("c2"))
    names = {"s1": "Ana", "s2": "Blake"}
    results = [result_for("s1", ["c1"]), result_for("s2", ["c2", "c1"])]
    paths = write(results, names, mapping, tmp_path)
    assert sorted(p.name for p in paths) == ["s1.html", "s2.html"]
    page_one = (tmp_path / "s1.html").read_text(encoding="utf-8")
    page_two = (tmp_path / "s2.html").read_text(encoding="utf-8")
    # no bleed-through between neighbouring pages
    assert "Ana" in page_one and "Blake" not in page_one
    assert "Candidate c2" not in page_one
    assert page_two.count("<li>") == 2


def test_write_pages_requires_known_students(tmp_path):
    with pytest.raises(PageError):
        write([result_for("s1", ["c1"])], {}, candidates_by_id(candidate("c1")), tmp_path)


def test_write_pages_rejects_ids_that_are_not_safe_filenames(tmp_path):
    sid = "../escape"
    with pytest.raises(PageError):
        write([result_for(sid, ["c1"])], {sid: ""}, candidates_by_id(candidate("c1")), tmp_path)
    assert not (tmp_path.parent / "escape.html").exists()


def test_each_page_equals_the_page_of_a_call_for_that_student_alone(tmp_path):
    # c2 is on every page, so its entry is rendered once and reused
    mapping = candidates_by_id(
        candidate("c1"),
        candidate("c2", name='<i>Ada</i> & "Bo"', industry="R&D <lab>"),
        candidate("c3", name="   "),
        candidate("c4", industry="", location="Austin, TX"),
    )
    others = [["c1", "c3"], ["c4"], ["c3", "c4", "c1"], []]
    results = [result_for(f"s{i:02d}", ["c2"] + others[i % 4] if i % 2 else others[i % 4] + ["c2"])
               for i in range(20)]
    names = {r.student_id: name for r, name in zip(results, ["Ana", "<b>Blake</b>", "", "Dee"] * 5)}
    for survey_url in (None, "https://example.com/survey?a=1&b=2"):
        out_dir = tmp_path / ("survey" if survey_url else "plain")
        paths = write(results, names, mapping, out_dir, survey_url=survey_url)
        assert [p.name for p in paths] == [f"{r.student_id}.html" for r in results]
        for result, path in zip(results, paths):
            alone = page_for(tmp_path / "alone", result, names[result.student_id], mapping,
                             survey_url=survey_url)
            assert path.read_bytes() == alone.encode("utf-8"), path.name
            greeting = html.escape(names[result.student_id] or result.student_id)
            assert f"<h1>Hi {greeting}, " in alone, path.name
            assert [url for url, _ in entries(alone)] == [
                PROFILE_URL_TEMPLATE.format(id=cid) for cid, _ in result.ranked]


def test_write_pages_rejects_bad_urls_and_unknown_candidates(tmp_path):
    mapping = candidates_by_id(candidate("c1"))
    results = [result_for("s1", ["c1"]), result_for("s2", ["c1"])]
    names = {"s1": "Ana", "s2": "Blake"}
    with pytest.raises(PageError):
        write(results, names, mapping, tmp_path, url_template="javascript:alert({id})")
    with pytest.raises(PageError):
        write(results, names, mapping, tmp_path, survey_url="ftp://example.com/survey")
    with pytest.raises(PageError) as err:
        write(results + [result_for("s3", ["ghost"])], {**names, "s3": ""}, mapping, tmp_path)
    assert "ghost" in str(err.value)


def test_a_call_that_fails_leaves_the_previous_pages_whole(tmp_path):
    mapping = candidates_by_id(candidate("c1"), candidate("c2"))
    names = {"s1": "Ana", "s2": "Blake", "s3": "Cy"}
    pages_dir = tmp_path / "pages"
    write([result_for("s1", ["c1"]), result_for("s2", ["c2"])], names, mapping, pages_dir)
    before = {path.name: path.read_bytes() for path in pages_dir.iterdir()}

    # the third result ranks a candidate with no record, after two pages of
    # the new call are written
    results = [result_for("s2", ["c1", "c2"]), result_for("s3", ["c2"]),
               result_for("s1", ["ghost"])]
    with pytest.raises(PageError, match="ghost"):
        write(results, names, mapping, pages_dir)
    assert {path.name: path.read_bytes() for path in pages_dir.iterdir()} == before
    assert [path.name for path in tmp_path.iterdir()] == ["pages"]


def test_a_rewrite_replaces_the_pages_directory_and_leaves_no_temporary(tmp_path):
    mapping = candidates_by_id(candidate("c1"))
    names = {"s1": "Ana", "s2": "Blake"}
    pages_dir = tmp_path / "pages"
    write([result_for("s1", ["c1"]), result_for("s2", ["c1"])], names, mapping, pages_dir)
    [path] = write([result_for("s2", ["c1"])], names, mapping, pages_dir)
    assert path == pages_dir / "s2.html"
    assert [p.name for p in pages_dir.iterdir()] == ["s2.html"]
    assert [p.name for p in tmp_path.iterdir()] == ["pages"]


def test_the_helper_creates_the_reserved_pages_and_skips_unsafe_ids(tmp_path):
    with PageStaging(tmp_path / "pages") as staging:
        staging.reserve(["../escape", "s1", "a/b"])
        staging.reserve(["s2"])
        # the helper takes names in order, so s2's page is the last it makes
        deadline = time.monotonic() + 30
        while not (staging.temp / "s2.html").exists() and time.monotonic() < deadline:
            time.sleep(0.01)
        staging.stop()
        assert sorted(path.name for path in staging.temp.iterdir()) == ["s1.html", "s2.html"]
        assert (staging.temp / "s1.html").read_bytes() == b""
    assert list(tmp_path.iterdir()) == []


def test_write_pages_fills_a_staging_directory_and_puts_it_in_place(tmp_path):
    mapping = candidates_by_id(candidate("c1"))
    results = [result_for("s1", ["c1"]), result_for("s2", ["c1"])]
    names = {"s1": "Ana", "s2": "Blake"}
    write(results, names, mapping, tmp_path / "plain")
    with PageStaging(tmp_path / "staged") as staging:
        staging.reserve(["s2", "s1"])
        write_pages(results, names, mapping, staging)
    assert ({p.name: p.read_bytes() for p in (tmp_path / "staged").iterdir()}
            == {p.name: p.read_bytes() for p in (tmp_path / "plain").iterdir()})
    assert sorted(p.name for p in tmp_path.iterdir()) == ["plain", "staged"]


def test_write_pages_refuses_a_staging_directory_holding_a_file_it_did_not_write(tmp_path):
    pages_dir = tmp_path / "pages"
    with PageStaging(pages_dir) as staging, pytest.raises(PageError, match="'s9.html'"):
        (staging.temp / "s9.html").touch()
        write_pages([result_for("s1", ["c1"])], {"s1": "Ana"}, candidates_by_id(candidate("c1")),
                    staging)
    assert list(tmp_path.iterdir()) == []
