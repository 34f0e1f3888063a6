"""Deterministic synthetic corpus: registry, datasets, and example database.

Sixteen personal-assistant tools across four themes, a 400-sample training
split whose tool co-occurrence is deliberately skewed (video-call requests
almost always resolve an email address, almost never a phone number), and a
60-query test split.  All text is generated from fixed tables plus a seeded
RNG, so repeated generation is byte-identical.

Two tools intentionally lack a single-tool example in the database, which
exercises the double-tool substitute path when assembling prompt example
sections.
"""

from __future__ import annotations

import json
import random
from dataclasses import asdict, dataclass
from pathlib import Path

from . import corpus, pipeline, weaver
from .tokenizer import Tokenizer

THEMES = ("calendar", "contacts", "email", "notes")

# id, theme, display name
TOOL_TABLE = (
    ("create_calendar_event", "calendar", "create calendar event"),
    ("delete_calendar_event", "calendar", "delete calendar event"),
    ("get_zoom_link", "calendar", "get video meeting link"),
    ("create_reminder", "calendar", "create reminder"),
    ("get_email_address", "contacts", "look up email address"),
    ("get_phone_number", "contacts", "look up phone number"),
    ("open_contact_card", "contacts", "open contact card"),
    ("add_new_contact", "contacts", "add new contact"),
    ("compose_new_email", "email", "compose new email"),
    ("reply_to_email", "email", "reply to email"),
    ("forward_email", "email", "forward email"),
    ("summarize_inbox", "email", "summarize inbox"),
    ("create_note", "notes", "create note"),
    ("append_note_content", "notes", "append note content"),
    ("open_note", "notes", "open note"),
    ("search_notes", "notes", "search notes"),
)

# Tools whose single-tool example is deliberately absent from the database.
NO_SINGLE_EXAMPLE = frozenset({"get_zoom_link", "summarize_inbox"})

_PURPOSE = {
    "create_calendar_event": (
        "creates a calendar event with a title, a start time, an optional location, and an optional list of invitees",
        "put a meeting, a lunch, an appointment, or any other engagement on the calendar",
        "a title string, a time phrase taken verbatim from the request, and optionally invitee addresses or a meeting link",
        "the identifier of the created event",
    ),
    "delete_calendar_event": (
        "removes an existing event from the calendar after matching it by title and time",
        "cancel a meeting or clear an appointment that is no longer happening",
        "the title of the event and optionally the time phrase that disambiguates it",
        "a confirmation that the event was removed",
    ),
    "get_zoom_link": (
        "provisions a fresh video conference room and returns the join link for it",
        "set up a video call, a remote standup, or any meeting that needs a join link",
        "a short topic string used as the room name",
        "the join link for the new room",
    ),
    "create_reminder": (
        "schedules a reminder notification for a task at a given time",
        "be reminded about a task, a deadline, or a follow up",
        "the reminder text and the time phrase copied from the request",
        "the identifier of the created reminder",
    ),
    "get_email_address": (
        "searches the address book and returns the email address of the named person",
        "resolve a person mentioned by name into a deliverable email address",
        "the person's name exactly as the user wrote it",
        "the best matching email address",
    ),
    "get_phone_number": (
        "searches the address book and returns the phone number of the named person",
        "resolve a person mentioned by name into a dialable phone number",
        "the person's name exactly as the user wrote it",
        "the best matching phone number",
    ),
    "open_contact_card": (
        "opens the full contact card of a person so the user can inspect every stored detail",
        "see everything stored about a person, not just one field",
        "the person's name",
        "a handle to the opened card",
    ),
    "add_new_contact": (
        "creates a new entry in the address book from the details given in the request",
        "save a new acquaintance's details for later use",
        "the person's name plus any phone number or email address mentioned",
        "the identifier of the new contact",
    ),
    "compose_new_email": (
        "writes and sends a new email message to one or more recipients",
        "send a message, share a link, or deliver any text by mail",
        "recipient addresses, a subject line, and a body which may reference earlier results",
        "a confirmation that the message was sent",
    ),
    "reply_to_email": (
        "sends a reply to the most recent message in a named conversation",
        "answer a message that is already sitting in the inbox",
        "the sender name or subject identifying the conversation and the reply body",
        "a confirmation that the reply was sent",
    ),
    "forward_email": (
        "forwards an existing message from the inbox to a new recipient",
        "pass a received message along to someone else",
        "the subject or sender identifying the message and the new recipient",
        "a confirmation that the message was forwarded",
    ),
    "summarize_inbox": (
        "reads the recent unread messages and produces a short digest of them",
        "catch up on mail without opening every message",
        "an optional count of messages to cover",
        "a digest of the covered messages",
    ),
    "create_note": (
        "creates a new note with a title and optional initial content",
        "start a fresh note for lists, drafts, or ideas",
        "a title string and optionally the first lines of content",
        "the identifier of the new note",
    ),
    "append_note_content": (
        "appends text to the end of an existing note without changing what is already there",
        "grow an existing list or log without retyping it",
        "the note title or identifier and the text to add",
        "a confirmation that the text was appended",
    ),
    "open_note": (
        "opens a note by title so the user can read or edit it",
        "bring an existing note onto the screen",
        "the note title",
        "a handle to the opened note",
    ),
    "search_notes": (
        "searches every note for a phrase and lists the notes that mention it",
        "find which note holds a phrase the user remembers writing",
        "the phrase to search for",
        "the list of matching note titles",
    ),
}

_FILLER = (
    "the tool runs entirely on the device and completes in well under a second for ordinary inputs.",
    "arguments must be passed by keyword, in the order documented here, and extra arguments are rejected.",
    "if the required argument is missing the call fails with a descriptive error instead of guessing.",
    "results are returned as plain text so later plan steps can reference them directly with the dollar notation.",
    "the tool never asks follow up questions, so the plan must supply every detail it needs up front.",
)

_GUIDELINE = {
    "calendar": "only schedule within the next twelve months, never double book an existing slot silently, and echo the time phrase back exactly as the user wrote it.",
    "contacts": "when several people share the name, prefer the most recently contacted one, and never expose details for people absent from the address book.",
    "email": "never send mail without an explicit request to do so, keep the user's wording in the body verbatim, and refuse recipients that are not resolvable addresses.",
    "notes": "never overwrite existing note content, match titles case insensitively, and create the note first when a requested note does not exist.",
}


def _description_text(tool_id: str, display: str) -> str:
    purpose, use_case, args, returns = _PURPOSE[tool_id]
    # Rotate filler sentences so descriptions share structure but not text.
    offset = sum(ord(c) for c in tool_id) % len(_FILLER)
    fillers = [_FILLER[(offset + i) % len(_FILLER)] for i in range(3)]
    return (
        f"the {display} tool {purpose}. call it when the user wants to {use_case}. "
        f"it expects {args}, and it returns {returns}. "
        f"{fillers[0]} {fillers[1]} {fillers[2]}"
    )


def registry_doc() -> dict:
    tools = []
    for tool_id, theme, display in TOOL_TABLE:
        tools.append(
            {
                "id": tool_id,
                "name": display,
                "theme": theme,
                "description": _description_text(tool_id, display),
                "guidelines": _GUIDELINE[theme],
            }
        )
    return {"themes": list(THEMES), "tools": tools}


_FIRST_NAMES = (
    "maria", "john", "amira", "lucas", "wei", "sofia", "omar", "anna", "david", "yuki",
    "priya", "tomas", "elena", "noah", "fatima", "george", "ines", "marco", "leila", "sam",
    "nora", "pablo", "irene", "kofi", "dana", "victor", "mei", "oscar", "ruth", "jonas",
)

_WHEN = (
    "tomorrow at 5pm", "next monday morning", "friday at noon", "this afternoon",
    "tonight at 8", "next week", "on the first of the month", "in two hours",
    "wednesday at 9am", "saturday evening",
)

_TOPICS = (
    "project sync", "budget review", "weekly standup", "design review", "trip planning",
    "quarterly report", "reading list", "grocery list", "meeting minutes", "house hunt",
)


def _plan(nodes, edges=()):
    return {"nodes": [{"call": c, "args": list(a)} for c, a in nodes], "edges": [list(e) for e in edges]}


@dataclass(frozen=True)
class Archetype:
    name: str
    tools: tuple[str, ...]
    train_count: int
    test_count: int

    def build(self, rng: random.Random) -> dict:
        person = rng.choice(_FIRST_NAMES)
        other = rng.choice(_FIRST_NAMES)
        when = rng.choice(_WHEN)
        topic = rng.choice(_TOPICS)
        query, plan = _BUILDERS[self.name](person, other, when, topic)
        return {"query": query, "tools": sorted(self.tools), "plan": plan}


def _b_video_call_full(person, other, when, topic):
    query = f"schedule a video call with {person} {when} about the {topic}"
    plan = _plan(
        [
            ("get_zoom_link", (f"topic = {topic}",)),
            ("get_email_address", (f"name = {person}",)),
            ("create_calendar_event", (f"title = {topic}", "invitee = $2", "link = $1", f"when = {when}")),
        ],
        edges=((0, 2), (1, 2)),
    )
    return query, plan


def _b_video_call_mail(person, other, when, topic):
    query = f"send {person} a video call link for the {topic}"
    plan = _plan(
        [
            ("get_zoom_link", (f"topic = {topic}",)),
            ("get_email_address", (f"name = {person}",)),
        ],
        edges=(),
    )
    return query, plan


def _b_video_call_phone(person, other, when, topic):
    query = f"text {person} a video call link for the {topic}"
    plan = _plan(
        [
            ("get_zoom_link", (f"topic = {topic}",)),
            ("get_phone_number", (f"name = {person}",)),
        ],
    )
    return query, plan


def _b_video_call_cal(person, other, when, topic):
    query = f"put a video call about the {topic} on my calendar {when}"
    plan = _plan(
        [
            ("get_zoom_link", (f"topic = {topic}",)),
            ("create_calendar_event", (f"title = {topic}", "link = $1", f"when = {when}")),
        ],
        edges=((0, 1),),
    )
    return query, plan


def _b_email_person(person, other, when, topic):
    query = f"email {person} about the {topic}"
    plan = _plan(
        [
            ("get_email_address", (f"name = {person}",)),
            ("compose_new_email", ("to = $1", f"subject = {topic}", f"body = about the {topic}")),
        ],
        edges=((0, 1),),
    )
    return query, plan


def _b_compose_solo(person, other, when, topic):
    query = f"send an email to {person}@example.com about the {topic}"
    plan = _plan(
        [("compose_new_email", (f"to = {person} @ example . com", f"subject = {topic}", f"body = about the {topic}"))],
    )
    return query, plan


def _b_cal_reminder(person, other, when, topic):
    query = f"schedule the {topic} {when} and remind me an hour before"
    plan = _plan(
        [
            ("create_calendar_event", (f"title = {topic}", f"when = {when}")),
            ("create_reminder", (f"text = {topic}", f"when = an hour before {when}")),
        ],
    )
    return query, plan


def _b_note_append(person, other, when, topic):
    query = f"start a note called {topic} and add {other} to it"
    plan = _plan(
        [
            ("create_note", (f"title = {topic}",)),
            ("append_note_content", ("note = $1", f"text = {other}")),
        ],
        edges=((0, 1),),
    )
    return query, plan


def _b_open_note(person, other, when, topic):
    query = f"open my {topic} note"
    plan = _plan([("open_note", (f"title = {topic}",))])
    return query, plan


def _b_search_open(person, other, when, topic):
    query = f"find the note where i mentioned {other} and open it"
    plan = _plan(
        [
            ("search_notes", (f"phrase = {other}",)),
            ("open_note", ("title = $1",)),
        ],
        edges=((0, 1),),
    )
    return query, plan


def _b_phone_card(person, other, when, topic):
    query = f"look up {person} s number and show me their card"
    plan = _plan(
        [
            ("get_phone_number", (f"name = {person}",)),
            ("open_contact_card", (f"name = {person}",)),
        ],
    )
    return query, plan


def _b_fwd_sum(person, other, when, topic):
    query = f"summarize my inbox and forward the {topic} mail to {person}"
    plan = _plan(
        [
            ("summarize_inbox", ("count = 10",)),
            ("forward_email", (f"subject = {topic}", f"to = {person}")),
        ],
    )
    return query, plan


def _b_reply_solo(person, other, when, topic):
    query = f"reply to {person} that the {topic} is confirmed"
    plan = _plan([("reply_to_email", (f"sender = {person}", f"body = the {topic} is confirmed"))])
    return query, plan


def _b_sum_compose(person, other, when, topic):
    query = f"summarize my inbox and mail the digest to {person}@example.com"
    plan = _plan(
        [
            ("summarize_inbox", ("count = 10",)),
            ("compose_new_email", (f"to = {person} @ example . com", "subject = inbox digest", "body = $1")),
        ],
        edges=((0, 1),),
    )
    return query, plan


def _b_resched_remind(person, other, when, topic):
    query = f"move the {topic} to {when} and remind me before it"
    plan = _plan(
        [
            ("delete_calendar_event", (f"title = {topic}",)),
            ("create_calendar_event", (f"title = {topic}", f"when = {when}")),
            ("create_reminder", (f"text = {topic}", f"when = before {when}")),
        ],
    )
    return query, plan


def _b_note_fix(person, other, when, topic):
    query = f"find the {topic} note , open it , and add {other}"
    plan = _plan(
        [
            ("search_notes", (f"phrase = {topic}",)),
            ("open_note", ("title = $1",)),
            ("append_note_content", ("note = $2", f"text = {other}")),
        ],
        edges=((0, 1), (1, 2)),
    )
    return query, plan


def _b_card_add(person, other, when, topic):
    query = f"open {other} s card and save {person} as a new contact from it"
    plan = _plan(
        [
            ("open_contact_card", (f"name = {other}",)),
            ("add_new_contact", (f"name = {person}",)),
        ],
    )
    return query, plan


def _b_reply_sum(person, other, when, topic):
    query = f"catch me up on mail and reply to {person} about the {topic}"
    plan = _plan(
        [
            ("summarize_inbox", ("count = 10",)),
            ("reply_to_email", (f"sender = {person}", f"body = about the {topic}")),
        ],
    )
    return query, plan


def _b_add_contact(person, other, when, topic):
    query = f"add {person} to my contacts"
    plan = _plan([("add_new_contact", (f"name = {person}",))])
    return query, plan


def _b_add_phone(person, other, when, topic):
    query = f"save {person} s number from {other} s card"
    plan = _plan(
        [
            ("get_phone_number", (f"name = {person}",)),
            ("add_new_contact", (f"name = {person}", "phone = $1")),
        ],
        edges=((0, 1),),
    )
    return query, plan


def _b_del_event(person, other, when, topic):
    query = f"cancel the {topic} {when}"
    plan = _plan([("delete_calendar_event", (f"title = {topic}", f"when = {when}"))])
    return query, plan


def _b_reschedule(person, other, when, topic):
    query = f"move the {topic} to {when}"
    plan = _plan(
        [
            ("delete_calendar_event", (f"title = {topic}",)),
            ("create_calendar_event", (f"title = {topic}", f"when = {when}")),
        ],
    )
    return query, plan


_BUILDERS = {
    "video_call_full": _b_video_call_full,
    "video_call_mail": _b_video_call_mail,
    "video_call_phone": _b_video_call_phone,
    "video_call_cal": _b_video_call_cal,
    "email_person": _b_email_person,
    "compose_solo": _b_compose_solo,
    "cal_reminder": _b_cal_reminder,
    "note_append": _b_note_append,
    "open_note": _b_open_note,
    "search_open": _b_search_open,
    "phone_card": _b_phone_card,
    "fwd_sum": _b_fwd_sum,
    "reply_solo": _b_reply_solo,
    "reply_sum": _b_reply_sum,
    "sum_compose": _b_sum_compose,
    "resched_remind": _b_resched_remind,
    "note_fix": _b_note_fix,
    "card_add": _b_card_add,
    "add_contact": _b_add_contact,
    "add_phone": _b_add_phone,
    "del_event": _b_del_event,
    "reschedule": _b_reschedule,
}

# Train counts pin the co-occurrence ratios the analytics tests rely on:
# get_zoom_link appears in exactly 100 training samples, 91 of them with
# get_email_address and 6 with get_phone_number.
ARCHETYPES = (
    Archetype("video_call_full", ("get_zoom_link", "get_email_address", "create_calendar_event"), 55, 9),
    Archetype("video_call_mail", ("get_zoom_link", "get_email_address"), 36, 6),
    Archetype("video_call_phone", ("get_zoom_link", "get_phone_number"), 6, 1),
    Archetype("video_call_cal", ("get_zoom_link", "create_calendar_event"), 3, 1),
    Archetype("email_person", ("get_email_address", "compose_new_email"), 70, 10),
    Archetype("compose_solo", ("compose_new_email",), 8, 2),
    Archetype("cal_reminder", ("create_calendar_event", "create_reminder"), 40, 6),
    Archetype("resched_remind", ("delete_calendar_event", "create_calendar_event", "create_reminder"), 10, 1),
    Archetype("reschedule", ("delete_calendar_event", "create_calendar_event"), 6, 1),
    Archetype("note_append", ("create_note", "append_note_content"), 35, 5),
    Archetype("open_note", ("open_note",), 10, 2),
    Archetype("search_open", ("search_notes", "open_note"), 25, 3),
    Archetype("note_fix", ("search_notes", "open_note", "append_note_content"), 8, 1),
    Archetype("phone_card", ("get_phone_number", "open_contact_card"), 25, 3),
    Archetype("card_add", ("open_contact_card", "add_new_contact"), 6, 1),
    Archetype("fwd_sum", ("summarize_inbox", "forward_email"), 20, 3),
    Archetype("reply_sum", ("summarize_inbox", "reply_to_email"), 8, 1),
    Archetype("sum_compose", ("summarize_inbox", "compose_new_email"), 12, 2),
    Archetype("reply_solo", ("reply_to_email",), 5, 1),
    Archetype("add_contact", ("add_new_contact",), 4, 0),
    Archetype("add_phone", ("get_phone_number", "add_new_contact"), 6, 1),
    Archetype("del_event", ("delete_calendar_event",), 2, 0),
)


def render_plan_dict(plan: dict) -> str:
    """`corpus.render_plan` of a plan record, so example texts and planner output share one format."""
    nodes = tuple(corpus.PlanNode(call=node["call"], args=tuple(node["args"])) for node in plan["nodes"])
    return corpus.render_plan(corpus.PlanDAG(nodes=nodes, edges=()))


def dataset_records(split: str, seed: int) -> list[dict]:
    """Generate one split; train and test use disjoint RNG streams."""
    if split not in ("train", "test"):
        raise ValueError("split must be 'train' or 'test'")
    records = []
    for arch in ARCHETYPES:
        count = arch.train_count if split == "train" else arch.test_count
        rng = random.Random(f"{seed}:{split}:{arch.name}")
        for _ in range(count):
            records.append(arch.build(rng))
    return records


def example_records() -> list[dict]:
    """The tool-use example database: one entry per archetype pattern plus
    single-tool examples for every tool that has one."""
    rng = random.Random("examples")
    records = []
    for arch in ARCHETYPES:
        sample = arch.build(rng)
        records.append(
            {
                "id": f"ex_{arch.name}",
                "example_text": f"request : {sample['query']} . plan : {render_plan_dict(sample['plan'])}",
                "tools": sample["tools"],
            }
        )
    single_builders = {
        "create_calendar_event": ("schedule the board meeting friday at noon", _plan([("create_calendar_event", ("title = board meeting", "when = friday at noon"))])),
        "delete_calendar_event": ("cancel the dentist appointment", _plan([("delete_calendar_event", ("title = dentist appointment",))])),
        "create_reminder": ("remind me to water the plants tonight at 8", _plan([("create_reminder", ("text = water the plants", "when = tonight at 8"))])),
        "get_email_address": ("what is anna s email address", _plan([("get_email_address", ("name = anna",))])),
        "get_phone_number": ("what is omar s phone number", _plan([("get_phone_number", ("name = omar",))])),
        "open_contact_card": ("show me dana s contact card", _plan([("open_contact_card", ("name = dana",))])),
        "add_new_contact": ("add ruth to my contacts", _plan([("add_new_contact", ("name = ruth",))])),
        "compose_new_email": ("send an email to team@example.com about the launch", _plan([("compose_new_email", ("to = team @ example . com", "subject = launch", "body = about the launch"))])),
        "reply_to_email": ("reply to victor that thursday works", _plan([("reply_to_email", ("sender = victor", "body = thursday works"))])),
        "forward_email": ("forward the invoice mail to accounting", _plan([("forward_email", ("subject = invoice", "to = accounting"))])),
        "create_note": ("start a note called reading list", _plan([("create_note", ("title = reading list",))])),
        "append_note_content": ("add milk to the grocery list note", _plan([("append_note_content", ("note = grocery list", "text = milk"))])),
        "open_note": ("open my meeting minutes note", _plan([("open_note", ("title = meeting minutes",))])),
        "search_notes": ("which note mentions the house hunt", _plan([("search_notes", ("phrase = house hunt",))])),
    }
    for tool_id, _, _ in TOOL_TABLE:
        if tool_id in NO_SINGLE_EXAMPLE:
            continue
        query, plan = single_builders[tool_id]
        records.append(
            {
                "id": f"single_{tool_id}",
                "example_text": f"request : {query} . plan : {render_plan_dict(plan)}",
                "tools": [tool_id],
            }
        )
    return records


DEFAULT_SEED = 11


def default_run_config() -> dict:
    """The fixture run.json: its knob sections hold the RunSettings defaults."""
    settings = asdict(pipeline.RunSettings())
    knobs = {section: {name: settings[name] for name in names} for section, names in pipeline.RUN_SECTIONS.items()}
    return knobs | {
        "paths": {
            "registry": "registry.json",
            "train": "train.jsonl",
            "test": "test.jsonl",
            "examples": "examples.jsonl",
            "vocab": "vocab.json",
            "plan": "plan.json",
            "cachedir": "cache",
            "trace": "trace.jsonl",
        },
        "plan": {"budget": 15, "rank": 8, "seed": DEFAULT_SEED, "iters": 500, "tol": 1e-6},
        "cache": {"geometry": "desk"},
        "simulate": {
            "device": "m4-pro",
            "geometry": "7b-class",
            "tax": "ideal",
            "tool_seconds": 0.4,
            "toolrag_seconds": 0.66,
        },
    }


def write_fixtures(outdir, seed: int = DEFAULT_SEED) -> dict[str, Path]:
    """Emit the synthetic corpus plus a ready-to-use run configuration."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    paths = {}

    registry = registry_doc()
    paths["registry"] = outdir / "registry.json"
    paths["registry"].write_text(json.dumps(registry, indent=1, sort_keys=True) + "\n")

    for split, fname in (("train", "train.jsonl"), ("test", "test.jsonl")):
        records = dataset_records(split, seed)
        paths[split] = outdir / fname
        paths[split].write_text("".join(json.dumps(r, sort_keys=True) + "\n" for r in records))

    examples = example_records()
    paths["examples"] = outdir / "examples.jsonl"
    paths["examples"].write_text("".join(json.dumps(r, sort_keys=True) + "\n" for r in examples))

    # Build the shared vocabulary in a fixed ingestion order: registry,
    # datasets, examples, then the prompt templates.
    tok = Tokenizer()
    for rec in registry["tools"]:
        tok.tokenize(rec["id"])
        tok.tokenize(rec["name"])
        tok.tokenize(rec["description"])
        tok.tokenize(rec["guidelines"])
    for split in ("train", "test"):
        for rec in dataset_records(split, seed):
            tok.tokenize(rec["query"])
            tok.tokenize(render_plan_dict(rec["plan"]))
    for rec in examples:
        tok.tokenize(rec["example_text"])
    weaver.warm_vocabulary(tok)
    paths["vocab"] = outdir / "vocab.json"
    tok.save(paths["vocab"])

    config = default_run_config()
    paths["config"] = outdir / "run.json"
    paths["config"].write_text(json.dumps(config, indent=1, sort_keys=True) + "\n")
    return paths
