"""Personalized static HTML pages listing each student's role models.

One self-contained page per student, rendered and written by
``write_pages``: a greeting, one profile link per ranked candidate
(display name, industry, location), and an optional survey link.
Rendering is deliberately free of timestamps or any other run-varying
content so identical inputs produce identical bytes.

The pages go to a temporary directory, a ``PageStaging``, that replaces the
output directory once every page is written.  The kernel's cost of creating
thousands of files after a mass deletion can exceed that of rendering them,
so a pipeline run names the students it will write pages for as soon as it
knows them, and the staging's helper process creates those files, empty,
while the compute stages run.
"""

from __future__ import annotations

import html
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path
from typing import Iterable, Mapping
from urllib.parse import urlsplit

from .matching import MatchResult
from .records import CandidateRecord

PROFILE_URL_TEMPLATE = "https://www.linkedin.com/in/{id}"

_SAFE_FILENAME = re.compile(r"[A-Za-z0-9._-]+\Z")


class PageError(ValueError):
    """Raised for unrenderable page inputs."""


def _check_url(url: str) -> None:
    parts = urlsplit(url)
    if parts.scheme not in ("http", "https") or not parts.netloc:
        raise PageError(f"not a valid http(s) URL: {url!r}")


_PAGE_STYLE = """\
body { font-family: Georgia, 'Times New Roman', serif; max-width: 40rem;
       margin: 2rem auto; padding: 0 1rem; color: #222; }
h1 { font-size: 1.6rem; }
ol.rolemodels { padding-left: 1.4rem; }
ol.rolemodels li { margin: 0.8rem 0; }
.meta { display: block; color: #555; font-size: 0.9rem; }
.survey { margin-top: 2rem; border-top: 1px solid #ccc; padding-top: 1rem; }"""


def _render_entry(record: CandidateRecord, url_template: str) -> str:
    """One ``<li>`` of the role-model list: the record's display name (its
    id when the name is blank), profile link, industry and location."""
    url = url_template.format(id=record.id)
    _check_url(url)
    meta = " · ".join(part for part in (record.industry, record.location_raw) if part)
    return (
        "    <li><a href=\"{url}\">{name}</a>"
        "<span class=\"meta\">{meta}</span></li>".format(
            url=html.escape(url, quote=True),
            name=html.escape(record.full_name.strip() or record.id),
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


# The helper's program: create the empty file named by each line of stdin
# in the directory given as its argument.  A last line cut off before its
# newline names nothing.
_CREATOR = (
    "import os, sys\n"
    "os.chdir(sys.argv[1])\n"
    "for line in sys.stdin.buffer:\n"
    "    if line.endswith(b'\\n'):\n"
    "        os.close(os.open(line[:-1], os.O_WRONLY | os.O_CREAT, 0o666))\n"
)


class PageStaging:
    """The temporary directory beside ``out_dir`` that ``write_pages`` fills
    and then puts in place of ``out_dir``, its ``directory``.

    A helper process creates ahead the empty pages of the student ids that
    ``reserve`` queues; a page that already exists is truncated and written
    like a new one.  Names are written to the helper's stdin without
    blocking, and only filename-safe ids are sent.  The helper exits at the
    end of its stdin, and its exit status is ignored: what it has not
    created when ``write_pages`` stops it, ``write_pages`` creates, and so
    it creates every page where no helper could start.  ``close`` stops the
    helper and deletes the temporary directory unless ``write_pages`` has
    put it in place.
    """

    def __init__(self, out_dir: str | Path):
        self.directory = Path(out_dir)
        self.directory.parent.mkdir(parents=True, exist_ok=True)
        self.temp = self.directory.with_name(f".{self.directory.name}.{os.urandom(6).hex()}.tmp")
        self.temp.mkdir()
        self._helper = _start_helper(self.temp)
        self._pending = b""

    def __enter__(self) -> "PageStaging":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def reserve(self, student_ids: Iterable[str]) -> None:
        """Queue the pages of ``student_ids`` for the helper to create."""
        if self._helper is None:
            return
        self._pending += b"".join(f"{sid}.html\n".encode()
                                  for sid in student_ids if _SAFE_FILENAME.match(sid))
        try:
            while self._pending:
                self._pending = self._pending[os.write(self._helper.stdin.fileno(),
                                                       self._pending):]
        except BlockingIOError:
            pass  # the pipe is full; the rest goes with the next call
        except OSError:
            self._pending = b""  # the helper is gone

    def stop(self) -> None:
        """Stop the helper and wait for it, so that it creates no more files."""
        helper, self._helper = self._helper, None
        if helper is not None:
            helper.kill()
            helper.wait()
            helper.stdin.close()

    def close(self) -> None:
        self.stop()
        shutil.rmtree(self.temp, ignore_errors=True)


def _start_helper(directory: Path) -> subprocess.Popen | None:
    if not sys.executable:
        return None
    try:
        helper = subprocess.Popen(
            [sys.executable, "-I", "-S", "-c", _CREATOR, str(directory)],
            stdin=subprocess.PIPE, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
    except OSError:
        return None
    os.set_blocking(helper.stdin.fileno(), False)
    return helper


def write_pages(results: Iterable[MatchResult], display_names: Mapping[str, str],
                candidates: Mapping[str, CandidateRecord], staging: PageStaging,
                survey_url: str | None = None,
                url_template: str = PROFILE_URL_TEMPLATE) -> list[Path]:
    """Write ``<staging.directory>/<student_id>.html`` for every result.

    ``display_names`` maps each student id to the student's display name
    (empty when unknown).  The directory is replaced whole: the pages are
    written to ``staging``'s temporary directory, which takes its place
    only once every page is written and it holds no other file, and is
    deleted when anything raises.  So no page of a student who is no longer
    in the results survives, and a call that fails leaves the previous
    directory as it was.

    Profile URLs are derived from candidate ids through ``url_template``
    (records carry no URL field of their own).  A role model's entry is
    rendered, and its profile URL checked, once per call, so a page's bytes
    do not depend on the other results of the call.
    """
    directory, temp = staging.directory, staging.temp
    items: dict[str, str] = {}
    names = []
    try:
        staging.stop()
        if survey_url:
            _check_url(survey_url)
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
                    record = candidates.get(candidate_id)
                    if record is None:
                        raise PageError(f"no candidate record for ranked id {candidate_id!r} "
                                        f"(student {result.student_id!r})")
                    items[candidate_id] = _render_entry(record, url_template)
            page = _render_document(display_name or result.student_id,
                                    [items[candidate_id] for candidate_id, _ in result.ranked],
                                    survey_url)
            name = f"{result.student_id}.html"
            (temp / name).write_text(page, encoding="utf-8", newline="\n")
            names.append(name)
        strays = set(os.listdir(temp)).difference(names)
        if strays:
            raise PageError(f"{len(strays)} files in {temp} are no page of the results, "
                            f"such as {min(strays)!r}")
        _replace_directory(temp, directory)
    except BaseException:
        staging.close()
        raise
    return [directory / name for name in names]


def _replace_directory(new: Path, directory: Path) -> None:
    """Rename ``new`` to ``directory``, deleting the directory that was there."""
    old = new.with_suffix(".old")
    try:
        os.rename(directory, old)
    except FileNotFoundError:
        old = None
    os.rename(new, directory)
    if old is not None:
        shutil.rmtree(old)
