"""Personalized static HTML pages listing each student's role models.

One self-contained page per student: a greeting, one profile link per
ranked candidate (display name, industry, location), and an optional
survey link.  Rendering is deliberately free of timestamps or any other
run-varying content so identical inputs produce identical bytes.
"""

from __future__ import annotations

import html
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping
from urllib.parse import urlsplit

from .matching import MatchResult
from .records import CandidateRecord

PROFILE_URL_TEMPLATE = "https://www.linkedin.com/in/{id}"

_SAFE_FILENAME = re.compile(r"[A-Za-z0-9._-]+\Z")


class PageError(ValueError):
    """Raised for unrenderable page inputs."""


@dataclass(frozen=True)
class PageEntry:
    display_name: str
    profile_url: str
    industry: str
    location: str


@dataclass(frozen=True)
class PageSpec:
    """Everything that appears on one student's page."""

    student_id: str
    greeting_name: str
    entries: tuple[PageEntry, ...]
    survey_url: str | None = None

    def __post_init__(self) -> None:
        if not self.entries:
            raise PageError(f"page for {self.student_id!r} has no entries")
        for url in [e.profile_url for e in self.entries] + (
            [self.survey_url] if self.survey_url else []
        ):
            _check_url(url)


def _check_url(url: str) -> None:
    parts = urlsplit(url)
    if parts.scheme not in ("http", "https") or not parts.netloc:
        raise PageError(f"not a valid http(s) URL: {url!r}")


def build_page_spec(result: MatchResult, greeting_name: str,
                    candidates: Mapping[str, CandidateRecord],
                    survey_url: str | None = None,
                    url_template: str = PROFILE_URL_TEMPLATE) -> PageSpec:
    """Assemble the page contents for one match result.

    Profile URLs are derived from candidate ids through ``url_template``
    (records carry no URL field of their own).
    """
    if not result.ranked:
        raise PageError(f"match result for {result.student_id!r} is empty")
    return PageSpec(
        student_id=result.student_id,
        greeting_name=greeting_name,
        entries=tuple(_page_entry(result.student_id, candidate_id, candidates, url_template)
                      for candidate_id, _ in result.ranked),
        survey_url=survey_url,
    )


def _page_entry(student_id: str, candidate_id: str, candidates: Mapping[str, CandidateRecord],
                url_template: str) -> PageEntry:
    record = candidates.get(candidate_id)
    if record is None:
        raise PageError(
            f"no candidate record for ranked id {candidate_id!r} (student {student_id!r})"
        )
    return PageEntry(
        display_name=record.full_name.strip() or record.id,
        profile_url=url_template.format(id=record.id),
        industry=record.industry,
        location=record.location_raw,
    )


_PAGE_STYLE = """\
body { font-family: Georgia, 'Times New Roman', serif; max-width: 40rem;
       margin: 2rem auto; padding: 0 1rem; color: #222; }
h1 { font-size: 1.6rem; }
ol.rolemodels { padding-left: 1.4rem; }
ol.rolemodels li { margin: 0.8rem 0; }
.meta { display: block; color: #555; font-size: 0.9rem; }
.survey { margin-top: 2rem; border-top: 1px solid #ccc; padding-top: 1rem; }"""


def render_page(spec: PageSpec) -> str:
    """Render a page spec to a full HTML document string."""
    return _render_document(spec.greeting_name, [_render_entry(e) for e in spec.entries],
                            spec.survey_url)


def _render_entry(entry: PageEntry) -> str:
    """One ``<li>`` of the role-model list."""
    meta = " · ".join(part for part in (entry.industry, entry.location) if part)
    return (
        "    <li><a href=\"{url}\">{name}</a>"
        "<span class=\"meta\">{meta}</span></li>".format(
            url=html.escape(entry.profile_url, quote=True),
            name=html.escape(entry.display_name),
            meta=html.escape(meta),
        )
    )


def _render_document(greeting_name: str, items: list[str], survey_url: str | None) -> str:
    greeting = html.escape(greeting_name)
    survey = ""
    if survey_url:
        survey = (
            "  <p class=\"survey\"><a href=\"{url}\">"
            "Tell us what you think of your matches</a></p>\n".format(
                url=html.escape(survey_url, quote=True)
            )
        )
    return (
        "<!DOCTYPE html>\n"
        "<html lang=\"en\">\n"
        "<head>\n"
        "<meta charset=\"utf-8\">\n"
        f"<title>STEM role models for {greeting}</title>\n"
        f"<style>\n{_PAGE_STYLE}\n</style>\n"
        "</head>\n"
        "<body>\n"
        f"  <h1>Hi {greeting}, meet your STEM role models</h1>\n"
        "  <p>We looked for professionals who share your background and your\n"
        "  interests. Here is who we found:</p>\n"
        "  <ol class=\"rolemodels\">\n"
        + "\n".join(items)
        + "\n  </ol>\n"
        + survey
        + "</body>\n"
        "</html>\n"
    )


def write_pages(results: Iterable[MatchResult], display_names: Mapping[str, str],
                candidates: Mapping[str, CandidateRecord], out_dir: str | Path,
                survey_url: str | None = None,
                url_template: str = PROFILE_URL_TEMPLATE) -> list[Path]:
    """Write ``<out_dir>/<student_id>.html`` for every result.

    ``display_names`` maps each student id to the student's display name
    (empty when unknown).  Any other ``*.html`` already in ``out_dir`` is a
    page for a student no longer in the results and is removed.

    Each page equals ``render_page(build_page_spec(...))``; a role model's
    entry is rendered, and its profile URL checked, once per call.
    """
    if survey_url:
        _check_url(survey_url)
    directory = Path(out_dir)
    directory.mkdir(parents=True, exist_ok=True)
    items: dict[str, str] = {}
    written = []
    for result in results:
        display_name = display_names.get(result.student_id)
        if display_name is None:
            raise PageError(f"no student record for result {result.student_id!r}")
        if not _SAFE_FILENAME.match(result.student_id):
            raise PageError(f"student id {result.student_id!r} is not filename-safe")
        if not result.ranked:
            raise PageError(f"match result for {result.student_id!r} is empty")
        for candidate_id, _ in result.ranked:
            if candidate_id not in items:
                entry = _page_entry(result.student_id, candidate_id, candidates, url_template)
                _check_url(entry.profile_url)
                items[candidate_id] = _render_entry(entry)
        page = _render_document(display_name or result.student_id,
                                [items[candidate_id] for candidate_id, _ in result.ranked],
                                survey_url)
        path = directory / f"{result.student_id}.html"
        path.write_text(page, encoding="utf-8", newline="\n")
        written.append(path)
    keep = set(written)
    for stale in directory.glob("*.html"):
        if stale not in keep:
            stale.unlink()
    return written
